// Package scia implements the statistics-collectors insertion algorithm
// of §2.5: a post-optimization pass that decides which run-time
// statistics are worth collecting and inserts statistics-collector
// operators into the annotated plan.
//
// Candidate statistics are ranked by effectiveness — first by the
// inaccuracy potential of the optimizer estimate they would check
// (low/medium/high, propagated through the plan by the paper's rules),
// then by the fraction of the not-yet-executed plan they affect — and
// accepted greedily until their total collection cost reaches the budget
// μ × T_cur-plan,optimizer.
//
// A collector goes only where a checkpoint reads its report: on a hash
// join's build input, looking through filters. The dispatcher decides
// once a build phase has drained its input (§2.4), and that input is
// the one intermediate result whose statistics are then complete; a
// report from anywhere else arrives after the last decision, or is
// overwritten by a later one before a decision reads it ("too late to
// do anything about it", §2.5). At such a point the cardinality and
// size collector is free and always placed, priced statistics ride on
// it within the budget, and a plan without a hash join carries none.
package scia

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Level is an inaccuracy potential grade.
type Level uint8

// The paper's three grades.
const (
	Low Level = iota
	Medium
	High
)

// String renders the grade.
func (l Level) String() string { return [...]string{"low", "medium", "high"}[min(l, High)] }

// bump raises a level by one, saturating at High.
func (l Level) bump() Level {
	if l >= High {
		return High
	}
	return l + 1
}

func maxLevel(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

// Config tunes the insertion algorithm.
type Config struct {
	// Mu is the maximum acceptable statistics-collection overhead as a
	// fraction of the estimated query execution time (default 0.05,
	// the paper's setting).
	Mu float64
	// HistFamily is the family run-time histograms are built with.
	HistFamily histogram.Family
	// Weights prices the collection work.
	Weights storage.CostWeights
	// Seed makes reservoir sampling deterministic.
	Seed int64
	// Trace, when non-nil, receives one "scia" event per accepted
	// statistic (placement, inaccuracy level, effectiveness rank, cost)
	// plus a budget summary.
	Trace *obs.Trace
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Mu: 0.05, HistFamily: histogram.MaxDiff, Weights: storage.DefaultCostWeights()}
}

// Inserted describes one collector placed into the plan.
type Inserted struct {
	Collector *plan.Collector
	// Point is a human-readable description of the plan position.
	Point string
	// Stats lists the chosen statistics for diagnostics.
	Stats []string
}

// candidate is one potentially-useful statistic.
type candidate struct {
	point    int // index into spine points
	isUnique bool
	cols     []int // schema ordinals at the point (1 for histograms)
	level    Level
	affected float64 // fraction of plan cost influenced
	cost     float64 // collection cost estimate
	desc     string
}

// Insert runs the algorithm over an optimized plan, mutating it in
// place. It returns the collectors added (free cardinality collectors
// included), none when no hash join reads a spine point's output.
func Insert(res *optimizer.Result, cfg Config) ([]Inserted, error) {
	if cfg.Mu <= 0 {
		cfg.Mu = 0.05
	}
	points := slices.DeleteFunc(spinePoints(res.Root), func(pt point) bool { return exact(res, pt.node) })
	if len(points) == 0 {
		return nil, nil
	}
	totalCost := res.Root.Est().Cost
	budget := cfg.Mu * totalCost

	cands := enumerate(res, points, totalCost, cfg)
	// Order by decreasing effectiveness: higher inaccuracy potential
	// first, larger affected fraction breaking ties (§2.5).
	sortCandidates(cands)

	chosen := make(map[int][]candidate) // point -> accepted stats
	spent := 0.0
	accepted := 0
	for rank, c := range cands {
		if spent+c.cost > budget {
			continue
		}
		spent += c.cost
		accepted++
		chosen[c.point] = append(chosen[c.point], c)
		if cfg.Trace.Enabled() {
			cfg.Trace.Emit("scia", "statistic accepted",
				"rank", rank+1,
				"stat", c.desc,
				"point", points[c.point].desc,
				"level", c.level.String(),
				"affected_fraction", c.affected,
				"cost", c.cost,
			)
		}
	}
	if cfg.Trace.Enabled() {
		cfg.Trace.Emit("scia", "insertion budget summary",
			"mu", cfg.Mu,
			"budget", budget,
			"spent", spent,
			"candidates", len(cands),
			"accepted", accepted,
			"points", len(points),
		)
	}

	var out []Inserted
	model := optimizer.Optimizer{Weights: cfg.Weights}
	for pi, pt := range points {
		spec := plan.CollectorSpec{HistFamily: cfg.HistFamily, Seed: cfg.Seed + int64(pt.seq)}
		var stats []string
		for _, c := range chosen[pi] {
			if c.isUnique {
				spec.UniqueCols = append(spec.UniqueCols, c.cols)
			} else {
				spec.HistCols = append(spec.HistCols, c.cols[0])
			}
			stats = append(stats, c.desc)
		}
		col := &plan.Collector{Input: pt.node, Spec: spec, ID: pi + 1}
		e := col.Est()
		in := pt.node.Est()
		e.Rows, e.Bytes = in.Rows, in.Bytes
		e.SelfCost = model.SelfCost(col, 0)
		e.Cost = in.Cost + e.SelfCost
		if err := replaceChild(pt.parent, pt.node, col); err != nil {
			return nil, err
		}
		out = append(out, Inserted{Collector: col, Point: pt.desc, Stats: stats})
	}
	return out, nil
}

// point is one pipeline boundary where a collector can observe an
// intermediate result a checkpoint reads.
type point struct {
	node   plan.Node // the node whose output is observed
	parent plan.Node // consumer to re-point at the collector
	desc   string
	// seq numbers the point among every intermediate result of the
	// spine, read or not; it seeds the point's reservoirs, so a sample
	// does not depend on which other points qualify.
	seq int
}

// spinePoints returns, in execution order, the intermediate results of
// the left spine (the leftmost leaf pipeline's output and each join's
// output) that are a hash join's build input, looking through filters.
// The dispatcher reads the latest report once a build phase completes,
// so these are the only results whose statistics reach a decision: an
// index join's outer is overwritten by the report of the build that
// later drains it, and the spine's top result arrives after the last
// checkpoint.
func spinePoints(root plan.Node) []point {
	// Walk down past the top operators to the spine. SCIA runs on the
	// serial plan, before exchange.Parallelize.
	cur := root
	for {
		switch n := cur.(type) {
		case *plan.Project, *plan.Agg, *plan.Sort, *plan.Limit:
			cur = n.Children()[0]
			continue
		}
		break
	}
	var pts []point
	seq := 0
	observe := func(n, parent plan.Node, build bool, desc string) {
		if build {
			pts = append(pts, point{node: n, parent: parent, desc: desc, seq: seq})
		}
		seq++
	}
	// build reports whether n's output is, through filters, its hash
	// join's build input.
	var walk func(n, parent plan.Node, build bool)
	walk = func(n, parent plan.Node, build bool) {
		switch x := n.(type) {
		case *plan.HashJoin:
			walk(x.Build, x, true)
			observe(x, parent, build, "output of "+x.Label()+" ["+x.Describe()+"]")
		case *plan.IndexJoin:
			walk(x.Outer, x, false)
			observe(x, parent, build, "output of "+x.Label()+" ["+x.Describe()+"]")
		case *plan.Filter:
			walk(x.Input, x, build)
		case *plan.Scan:
			observe(x, parent, build, "output of scan "+x.Binding)
		}
	}
	walk(cur, nil, false)
	return pts
}

// exact reports whether a point's estimate is exact: a subtree graded
// low throughout that reads an index scan's key range. Its rows are known
// before it runs, and a report that repeats the estimate gives a
// checkpoint nothing to repair, so the point gets no collector.
func exact(res *optimizer.Result, n plan.Node) bool {
	return readsKeyRange(n) && newLevelTracer(res).pointLevel(n) == Low
}

// readsKeyRange reports whether an index scan is among the leaves of a
// spine point, whose subtree holds only scans, joins and the unary nodes
// of the join chain (followed field by field: Children allocates).
func readsKeyRange(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Scan:
		return x.Key != nil
	case *plan.HashJoin:
		return readsKeyRange(x.Build) || readsKeyRange(x.Probe)
	case *plan.IndexJoin:
		return readsKeyRange(x.Outer)
	case *plan.Filter:
		return readsKeyRange(x.Input)
	case *plan.Collector:
		return readsKeyRange(x.Input)
	}
	return false
}

// replaceChild re-points parent's link from old to new. A point's
// consumer is the hash join it builds, or a filter between the two.
func replaceChild(parent, old, new plan.Node) error {
	switch p := parent.(type) {
	case *plan.HashJoin:
		if p.Build == old {
			p.Build = new
			return nil
		}
	case *plan.Filter:
		if p.Input == old {
			p.Input = new
			return nil
		}
	}
	return fmt.Errorf("scia: %T is not the parent of %T", parent, old)
}

// enumerate lists the potentially useful statistics at every point: a
// histogram on a column used by a join or selection predicate applied
// later in the plan, and a distinct count on column sets grouped on
// later (§2.5). Every point is one a checkpoint reads, so placement and
// pricing follow one rule.
func enumerate(res *optimizer.Result, points []point, totalCost float64, cfg Config) []candidate {
	var cands []candidate
	levels := newLevelTracer(res)
	parents := parentLinks(res.Root)
	seenHist := map[string]bool{}
	seenUnique := map[string]bool{}

	for pi, pt := range points {
		schema := pt.node.Schema()
		rows := pt.node.Est().Rows
		ptLevel := levels.pointLevel(pt.node)

		// Histogram candidates: columns consumed by joins above.
		for ci, col := range schema.Columns {
			consumer, ok := laterJoinUse(parents, pt.node, col.Table, col.Name)
			if !ok {
				continue
			}
			key := col.Table + "." + col.Name
			if seenHist[key] {
				continue
			}
			seenHist[key] = true
			lv := maxLevel(levels.baseColLevel(col.Table, col.Name), ptLevel)
			aff := affectedFraction(consumer, totalCost)
			cands = append(cands, candidate{
				point:    pi,
				cols:     []int{ci},
				level:    lv,
				affected: aff,
				cost:     rows * cfg.Weights.StatCPU,
				desc:     fmt.Sprintf("histogram %s (%s, affects %.0f%%)", key, lv, aff*100),
			})
		}

		// Distinct-count candidates: the GROUP BY column set, if every
		// grouped column is present at this point.
		if agg := topAgg(res.Root); agg != nil && len(agg.GroupCols) > 0 {
			inSchema := agg.Input.Schema()
			var cols []int
			okAll := true
			names := ""
			for _, gc := range agg.GroupCols {
				c := inSchema.Columns[gc]
				ci, _ := schema.Find(c.Table, c.Name)
				if ci < 0 {
					okAll = false
					break
				}
				cols = append(cols, ci)
				if names != "" {
					names += ","
				}
				names += c.Table + "." + c.Name
			}
			if okAll && !seenUnique[names] {
				seenUnique[names] = true
				// The number of unique values at any intermediate
				// point has high inaccuracy potential (§2.5).
				aff := affectedFraction(agg, totalCost)
				cands = append(cands, candidate{
					point:    pi,
					isUnique: true,
					cols:     cols,
					level:    High,
					affected: aff,
					cost:     rows * cfg.Weights.StatCPU,
					desc:     fmt.Sprintf("unique %s (high, affects %.0f%%)", names, aff*100),
				})
			}
		}
	}
	return cands
}

// laterJoinUse reports whether the named column is a join key or filter
// input of an operator above `below` in the plan, returning the deepest
// such consumer.
func laterJoinUse(parents map[plan.Node]plan.Node, below plan.Node, table, name string) (plan.Node, bool) {
	for n := parents[below]; n != nil; n = parents[n] {
		if usesColumn(n, table, name) {
			return n, true
		}
	}
	return nil, false
}

// parentLinks maps every node under root to its parent, once per Insert:
// enumerate asks for the consumers above a point for every column of
// every point.
func parentLinks(root plan.Node) map[plan.Node]plan.Node {
	parents := map[plan.Node]plan.Node{}
	plan.Walk(root, func(n plan.Node) {
		for _, c := range n.Children() {
			parents[c] = n
		}
	})
	return parents
}

// usesColumn reports whether the operator's own predicates or keys read
// the named column.
func usesColumn(n plan.Node, table, name string) bool {
	switch x := n.(type) {
	case *plan.HashJoin:
		bs, ps := x.Build.Schema(), x.Probe.Schema()
		for _, k := range x.BuildKeys {
			c := bs.Columns[k]
			if equalCol(c.Table, c.Name, table, name) {
				return true
			}
		}
		for _, k := range x.ProbeKeys {
			c := ps.Columns[k]
			if equalCol(c.Table, c.Name, table, name) {
				return true
			}
		}
	case *plan.IndexJoin:
		c := x.Outer.Schema().Columns[x.OuterKey]
		if equalCol(c.Table, c.Name, table, name) {
			return true
		}
		ic := x.InnerKey()
		if equalCol(ic.Table, ic.Name, table, name) {
			return true
		}
	case *plan.Filter:
		for _, p := range x.PredSQL {
			if predUsesColumn(p, table, name) {
				return true
			}
		}
	}
	return false
}

func equalCol(t1, n1, t2, n2 string) bool { return t1 == t2 && n1 == n2 }

func predUsesColumn(p sql.Predicate, table, name string) bool {
	for _, e := range sql.Operands(p) {
		if exprUsesColumn(e, table, name) {
			return true
		}
	}
	return false
}

func exprUsesColumn(e sql.Expr, table, name string) bool {
	switch x := e.(type) {
	case *sql.ColumnRef:
		return (x.Table == table || x.Table == "") && x.Name == name
	case *sql.BinaryExpr:
		return exprUsesColumn(x.Left, table, name) || exprUsesColumn(x.Right, table, name)
	case *sql.AggExpr:
		return x.Arg != nil && exprUsesColumn(x.Arg, table, name)
	}
	return false
}

// topAgg finds the aggregate among the top operators, if any.
func topAgg(root plan.Node) *plan.Agg {
	cur := root
	for cur != nil {
		if a, ok := cur.(*plan.Agg); ok {
			return a
		}
		ch := cur.Children()
		if len(ch) == 0 {
			return nil
		}
		switch cur.(type) {
		case *plan.Project, *plan.Sort, *plan.Limit:
			cur = ch[0]
		default:
			return nil
		}
	}
	return nil
}

// affectedFraction is the share of total plan cost in the consumer and
// everything above it — the not-yet-executed portion the statistic can
// influence.
func affectedFraction(consumer plan.Node, totalCost float64) float64 {
	if totalCost <= 0 {
		return 0
	}
	e := consumer.Est()
	frac := (totalCost - e.Cost + e.SelfCost) / totalCost
	return math.Max(0, math.Min(1, frac))
}

// sortCandidates orders by effectiveness: level desc, affected desc,
// cheaper first as the final tiebreak.
func sortCandidates(cs []candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && moreEffective(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func moreEffective(a, b candidate) bool {
	if a.level != b.level {
		return a.level > b.level
	}
	if a.affected != b.affected {
		return a.affected > b.affected
	}
	return a.cost < b.cost
}
