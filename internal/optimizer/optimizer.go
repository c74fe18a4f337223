package optimizer

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// Optimizer produces annotated physical plans via System-R bottom-up
// dynamic programming over left-deep join trees.
type Optimizer struct {
	Weights   storage.CostWeights
	MemBudget float64 // per-query memory hint in bytes; 0 = unlimited
	// PoolPages is the shared buffer pool size in pages, for
	// cache-aware index-join costing; 0 assumes cold fetches.
	PoolPages float64

	// HostVarSelectivity, when > 0, is the assumed selectivity of every
	// predicate involving a host variable, instead of the textbook
	// defaults. The parametric-plan optimizer (the paper's §4 hybrid
	// proposal) enumerates plans across scenarios of this knob.
	HostVarSelectivity float64

	// DisableIndexJoin restricts plans to hash joins (ablation hook).
	DisableIndexJoin bool

	// Overlay, when set, holds rows an earlier run of the same statement
	// observed; they replace the estimate of each relation set it covers.
	Overlay Overlay

	// PlansConsidered counts DP transitions of the last Optimize call;
	// the re-optimizer converts it to T_opt (§2.4).
	PlansConsidered int
}

// Result is an optimized, annotated plan plus the analysis that produced
// it. The SCIA and the re-optimizing dispatcher both need the analysis:
// the SCIA to trace inaccuracy potentials, the dispatcher to know the
// join order when generating the remainder query.
type Result struct {
	Root  plan.Node
	Query *Query
	// Order is the chosen join order as indexes into Query.Rels.
	Order []int
	// PlansConsidered is the enumeration effort for this plan.
	PlansConsidered int
	// Overlay is the optimizer's Overlay the plan was chosen under; nil
	// for a plan of estimates alone. Shared, never modified.
	Overlay Overlay
}

// Overlay maps a relation set of one statement — a bitmask over its
// Query.Rels — to the rows a run observed for it: the set's join with
// every predicate among its relations applied. Within one statement a
// relation set fixes those predicates, so the set alone is the key.
type Overlay map[uint32]float64

// Merge returns ov with obs laid over it, and whether obs holds a
// relation set ov lacks. Neither map is modified.
func (ov Overlay) Merge(obs Overlay) (Overlay, bool) {
	out := make(Overlay, len(ov)+len(obs))
	for set, rows := range ov {
		out[set] = rows
	}
	added := false
	for set, rows := range obs {
		_, had := out[set]
		added = added || !had
		out[set] = rows
	}
	return out, added
}

// rows returns the overlay's rows for a relation set, or est when the
// overlay has none.
func (o *Optimizer) rows(set uint32, est float64) float64 {
	if r, ok := o.Overlay[set]; ok {
		return r
	}
	return est
}

// dpEntry is one DP state: the best left-deep plan joining the masked
// relation set.
type dpEntry struct {
	mask  uint32
	node  plan.Node
	rows  float64
	bytes float64
	cost  float64
	order []int
}

// Optimize plans a parsed statement.
func (o *Optimizer) Optimize(q *Query) (*Result, error) {
	o.PlansConsidered = 0

	leaves := make([]*dpEntry, len(q.Rels))
	for i := range q.Rels {
		leaf, err := o.buildLeaf(q, i)
		if err != nil {
			return nil, err
		}
		leaves[i] = leaf
	}

	best := map[uint32]*dpEntry{}
	for i, leaf := range leaves {
		best[1<<uint(i)] = leaf
	}
	n := len(q.Rels)
	full := uint32(1<<uint(n)) - 1

	// Enumerate by subset size; each state extends with one relation
	// (left-deep trees only, as in the original System R optimizer).
	for size := 1; size < n; size++ {
		for mask, entry := range best {
			if popcount(mask) != size {
				continue
			}
			for j := 0; j < n; j++ {
				jbit := uint32(1) << uint(j)
				if mask&jbit != 0 {
					continue
				}
				cand, err := o.extend(q, entry, leaves[j], j)
				if err != nil {
					return nil, err
				}
				if cand == nil {
					continue // no connecting predicate: defer cartesian
				}
				o.PlansConsidered++
				if cur, ok := best[mask|jbit]; !ok || cand.cost < cur.cost {
					best[mask|jbit] = cand
				}
			}
		}
	}
	if best[full] == nil {
		// Disconnected join graph: allow cartesian extensions.
		for size := 1; size < n; size++ {
			for mask, entry := range best {
				if popcount(mask) != size {
					continue
				}
				for j := 0; j < n; j++ {
					jbit := uint32(1) << uint(j)
					if mask&jbit != 0 {
						continue
					}
					cand, err := o.extendCartesian(q, entry, leaves[j], j)
					if err != nil {
						return nil, err
					}
					o.PlansConsidered++
					if cur, ok := best[mask|jbit]; !ok || cand.cost < cur.cost {
						best[mask|jbit] = cand
					}
				}
			}
		}
	}
	final := best[full]
	if final == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	root, err := o.buildTops(q, final)
	if err != nil {
		return nil, err
	}
	return &Result{Root: root, Query: q, Order: final.order, PlansConsidered: o.PlansConsidered, Overlay: o.Overlay}, nil
}

func popcount(m uint32) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// buildLeaf plans a single relation: a scan with pushed-down local
// predicates, through the key range they bound when that is cheaper.
func (o *Optimizer) buildLeaf(q *Query, i int) (*dpEntry, error) {
	rel := &q.Rels[i]
	t := rel.Table
	var preds []plan.Pred
	var predSQL []sql.Predicate
	for _, pr := range rel.LocalPreds {
		p, err := plan.BindPred(pr.AST, rel.Schema)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
		predSQL = append(predSQL, pr.AST)
	}
	sel := relSelectivity(rel, o.HostVarSelectivity)
	rows := o.rows(1<<uint(i), math.Max(0, tableCard(t)*sel))
	// Sized by what the scan emits, not by what the table stores: every
	// memory demand, spill volume and temp-table size above follows.
	avg := t.AvgBytes(rel.Cols)
	if avg <= 0 {
		avg = defaultWidth(rel.Out)
	}
	node := &plan.Scan{Table: t, Binding: rel.Binding, Filters: preds, FilterSQL: predSQL, Cols: rel.Cols, Out: rel.Out}
	e := node.Est()
	e.Rows = rows
	e.Bytes = rows * avg
	o.price(node, 0)
	if node.Key = o.keyRange(rel, preds); node.Key != nil {
		seq := e.Cost
		if o.price(node, 0); e.Cost >= seq {
			node.Key = nil
			o.price(node, 0)
		}
	}
	return &dpEntry{mask: 1 << uint(i), node: node, rows: rows, bytes: e.Bytes, cost: e.Cost, order: []int{i}}, nil
}

func defaultWidth(s *types.Schema) float64 {
	w := 0.0
	for _, c := range s.Columns {
		w += catalog.KindWidth(c.Kind)
	}
	return w
}

// connecting returns the join predicates linking relation j to the set
// in mask, split into equi-join keys and residual predicates.
func (q *Query) connecting(mask uint32, j int) (equi, other []*PredRef) {
	jbit := uint32(1) << uint(j)
	for _, pr := range q.Preds {
		if pr.Kind == PredLocal {
			continue
		}
		pm := pr.RelMask()
		if pm&jbit == 0 || pm&mask == 0 || pm&^(mask|jbit) != 0 {
			continue
		}
		if pr.Kind == PredEquiJoin {
			equi = append(equi, pr)
		} else {
			other = append(other, pr)
		}
	}
	return equi, other
}

// extend joins entry with relation j, choosing the cheaper of hash join
// and indexed nested-loops join. Returns nil if no predicate connects j
// to the set.
func (o *Optimizer) extend(q *Query, entry *dpEntry, leaf *dpEntry, j int) (*dpEntry, error) {
	equi, other := q.connecting(entry.mask, j)
	if len(equi) == 0 && len(other) == 0 {
		return nil, nil
	}

	// Combined selectivity of every connecting predicate.
	sel := 1.0
	for _, pr := range equi {
		sel *= joinSelectivity(q, pr)
	}
	for range other {
		sel *= histogram_DefaultRangeSelectivity
	}
	outRows := o.rows(entry.mask|1<<uint(j), entry.rows*leaf.rows*sel)
	leafAvg := avgBytes(leaf)
	outBytes := outRows * (avgBytes(entry) + leafAvg)

	var bestNode plan.Node
	bestCost := math.Inf(1)

	if len(equi) > 0 {
		node, cost, err := o.tryHashJoin(q, entry, j, equi, outRows, outBytes)
		if err != nil {
			return nil, err
		}
		if cost < bestCost {
			bestNode, bestCost = node, cost
		}
		node, cost, err = o.tryIndexJoin(q, entry, j, equi, outRows, outBytes)
		if err != nil {
			return nil, err
		}
		if node != nil && cost < bestCost {
			bestNode, bestCost = node, cost
		}
	} else {
		// Pure non-equi join: hash join degenerates; use a cartesian
		// hash join on no keys is wrong — use hash join with empty
		// keys via filter over cartesian is not supported; fall back
		// to index-less nested evaluation through a hash join on a
		// constant key is equivalent to cartesian + filter.
		node, cost, err := o.tryHashJoin(q, entry, j, nil, outRows, outBytes)
		if err != nil {
			return nil, err
		}
		bestNode, bestCost = node, cost
	}

	out := bestNode
	// Residual predicates above the join.
	if len(other) > 0 {
		preds := make([]plan.Pred, 0, len(other))
		predSQL := make([]sql.Predicate, 0, len(other))
		for _, pr := range other {
			p, err := plan.BindPred(pr.AST, bestNode.Schema())
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
			predSQL = append(predSQL, pr.AST)
		}
		f := &plan.Filter{Input: bestNode, Preds: preds, PredSQL: predSQL}
		fe := f.Est()
		fe.Rows = outRows
		fe.Bytes = outBytes
		o.price(f, bestCost)
		out = f
	}

	return &dpEntry{
		mask:  entry.mask | 1<<uint(j),
		node:  out,
		rows:  outRows,
		bytes: outBytes,
		cost:  bestCost,
		order: append(append([]int{}, entry.order...), j),
	}, nil
}

// histogram_DefaultRangeSelectivity mirrors the histogram package default
// without importing it here for one constant.
const histogram_DefaultRangeSelectivity = 1.0 / 3.0

func avgBytes(e *dpEntry) float64 {
	if e.rows <= 0 {
		return 0
	}
	return e.bytes / e.rows
}

// tryHashJoin builds the hash-join candidate: build side is the current
// intermediate (matching the paper's plan shapes), probe side is the new
// relation's scan.
func (o *Optimizer) tryHashJoin(q *Query, entry *dpEntry, j int, equi []*PredRef, outRows, outBytes float64) (plan.Node, float64, error) {
	probeLeaf, err := o.buildLeaf(q, j) // fresh node: plans are trees, not DAGs
	if err != nil {
		return nil, 0, err
	}
	buildSchema, probeSchema := entry.node.Schema(), probeLeaf.node.Schema()
	buildKeys, probeKeys, joinSQL, err := joinKeyOrdinals(q, buildSchema, probeSchema, j, equi)
	if err != nil {
		return nil, 0, err
	}
	node := &plan.HashJoin{
		Build:     entry.node,
		Probe:     probeLeaf.node,
		BuildKeys: buildKeys,
		ProbeKeys: probeKeys,
		JoinSQL:   joinSQL,
		Out:       buildSchema.Concat(probeSchema),
	}
	e := node.Est()
	e.Rows = outRows
	e.Bytes = outBytes
	o.price(node, entry.cost+probeLeaf.cost)
	return node, e.Cost, nil
}

// joinKeyOrdinals resolves equi-join predicates to column ordinals on
// the build (intermediate) and probe (new relation) schemas.
func joinKeyOrdinals(q *Query, buildSchema, probeSchema *types.Schema, j int, equi []*PredRef) (bk, pk []int, joinSQL []sql.Predicate, err error) {
	for _, pr := range equi {
		// Orient so the j side is the probe.
		lRel, lCol, rRel, rCol := pr.LeftRel, pr.LeftCol, pr.RightRel, pr.RightCol
		if lRel == j {
			lRel, lCol, rRel, rCol = rRel, rCol, lRel, lCol
		}
		if rRel != j {
			return nil, nil, nil, fmt.Errorf("optimizer: predicate %s does not touch relation %d", pr.AST.SQL(), j)
		}
		lBinding := q.Rels[lRel].Binding
		lName := q.Rels[lRel].Schema.Columns[lCol].Name
		bi, err := buildSchema.Resolve(lBinding, lName)
		if err != nil {
			return nil, nil, nil, err
		}
		rName := q.Rels[j].Schema.Columns[rCol].Name
		pi, err := probeSchema.Resolve(q.Rels[j].Binding, rName)
		if err != nil {
			return nil, nil, nil, err
		}
		bk = append(bk, bi)
		pk = append(pk, pi)
		joinSQL = append(joinSQL, pr.AST)
	}
	return bk, pk, joinSQL, nil
}

// tryIndexJoin builds the indexed nested-loops candidate, if exactly one
// equi predicate connects and the inner relation has an index on its
// side of it. Returns a nil node when not applicable.
func (o *Optimizer) tryIndexJoin(q *Query, entry *dpEntry, j int, equi []*PredRef, outRows, outBytes float64) (plan.Node, float64, error) {
	if o.DisableIndexJoin || len(equi) != 1 {
		return nil, 0, nil
	}
	pr := equi[0]
	lRel, lCol, rCol := pr.LeftRel, pr.LeftCol, pr.RightCol
	if lRel == j {
		lRel, lCol, rCol = pr.RightRel, pr.RightCol, pr.LeftCol
	}
	rel := &q.Rels[j]
	if _, ok := rel.Table.Indexes[rCol]; !ok {
		return nil, 0, nil
	}
	lBinding := q.Rels[lRel].Binding
	lName := q.Rels[lRel].Schema.Columns[lCol].Name
	outerKey, err := entry.node.Schema().Resolve(lBinding, lName)
	if err != nil {
		return nil, 0, err
	}
	var innerPreds []plan.Pred
	var innerSQL []sql.Predicate
	for _, lp := range rel.LocalPreds {
		p, err := plan.BindPred(lp.AST, rel.Schema)
		if err != nil {
			return nil, 0, err
		}
		innerPreds = append(innerPreds, p)
		innerSQL = append(innerSQL, lp.AST)
	}
	node := &plan.IndexJoin{
		Outer:        entry.node,
		Table:        rel.Table,
		Binding:      rel.Binding,
		OuterKey:     outerKey,
		InnerCol:     rCol,
		InnerFilters: innerPreds,
		JoinSQL:      []sql.Predicate{pr.AST},
		InnerSQL:     innerSQL,
		InnerCols:    rel.Cols,
		InnerOut:     rel.Out,
		Out:          entry.node.Schema().Concat(rel.Out),
	}
	innerCard, _ := rel.Table.Stats()
	node.EstMatches = innerCard / colNDV(rel.Table, rCol)
	e := node.Est()
	e.Rows = outRows
	e.Bytes = outBytes
	o.price(node, entry.cost)
	return node, e.Cost, nil
}

// extendCartesian joins with no predicate (disconnected graphs only).
func (o *Optimizer) extendCartesian(q *Query, entry, leaf *dpEntry, j int) (*dpEntry, error) {
	outRows := o.rows(entry.mask|1<<uint(j), entry.rows*leaf.rows)
	outBytes := outRows * (avgBytes(entry) + avgBytes(leaf))
	node, cost, err := o.tryHashJoin(q, entry, j, nil, outRows, outBytes)
	if err != nil {
		return nil, err
	}
	return &dpEntry{
		mask:  entry.mask | 1<<uint(j),
		node:  node,
		rows:  outRows,
		bytes: outBytes,
		cost:  cost,
		order: append(append([]int{}, entry.order...), j),
	}, nil
}

// ndvOfColumn estimates the distinct count of a (possibly intermediate)
// schema column by tracing it to its base relation.
func (o *Optimizer) ndvOfColumn(q *Query, col types.Column) float64 {
	for i := range q.Rels {
		rel := &q.Rels[i]
		if !strings.EqualFold(rel.Binding, col.Table) {
			continue
		}
		if ci, err := rel.Schema.Resolve(col.Table, col.Name); err == nil {
			return colNDV(rel.Table, ci)
		}
	}
	return 10
}
