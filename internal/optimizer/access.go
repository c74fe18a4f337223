package optimizer

import (
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Access paths. A leaf reads its table by a seq scan, or, when its
// filters bound a column that has a B+tree, by an index scan of the key
// range those bounds leave (plan.KeyRange). Both are priced by SelfCost
// and the leaf keeps the cheaper; SELECT leaves and the targets of
// UPDATE and DELETE (Target) are chosen the same way.

// keyRange returns the narrowest key range rel's bound filters put on
// one of its indexed columns, nil when none bounds one. preds are the
// filters bound to rel.Schema, in rel.LocalPreds order. Each column's
// range takes an equality if it has one, else its first lower and first
// upper bound; its EstMatches is the table's rows under the
// selectivities of the filters it took.
func (o *Optimizer) keyRange(rel *Rel, preds []plan.Pred) *plan.KeyRange {
	t := rel.Table
	if len(t.Indexes) == 0 {
		return nil
	}
	// Until the end, a range's EstMatches is the selectivity of the
	// filters it took.
	var ranges []*plan.KeyRange
	for i, p := range preds {
		b, ok := keyBound(t, p)
		if !ok {
			continue
		}
		b.EstMatches = localSelectivity(rel, rel.LocalPreds[i], o.HostVarSelectivity)
		k := slices.IndexFunc(ranges, func(r *plan.KeyRange) bool { return r.Col == b.Col })
		switch {
		case k < 0:
			ranges = append(ranges, &b)
		case ranges[k].Eq():
		case b.Eq():
			ranges[k] = &b
		default:
			r, took := ranges[k], false
			if r.Lo == nil && b.Lo != nil {
				r.Lo, r.LoIncl, took = b.Lo, b.LoIncl, true
			}
			if r.Hi == nil && b.Hi != nil {
				r.Hi, r.HiIncl, took = b.Hi, b.HiIncl, true
			}
			if took {
				r.EstMatches *= b.EstMatches
			}
		}
	}
	var best *plan.KeyRange
	for _, r := range ranges {
		r.EstMatches = tableCard(t) * clamp01(r.EstMatches)
		if best == nil || r.EstMatches < best.EstMatches {
			best = r
		}
	}
	return best
}

// keyBound returns the range one filter puts on an indexed column of t:
// a comparison or BETWEEN of the column with literals or host variables.
func keyBound(t *catalog.Table, p plan.Pred) (plan.KeyRange, bool) {
	var r plan.KeyRange
	var col *plan.ColExpr
	switch x := p.(type) {
	case *plan.CmpPred:
		op, v := x.Op, x.Right
		col, _ = x.Left.(*plan.ColExpr)
		if col == nil {
			op, v = op.Flip(), x.Left
			col, _ = x.Right.(*plan.ColExpr)
		}
		if col == nil || !isValue(v) {
			return r, false
		}
		switch op {
		case sql.OpEq:
			r.Lo, r.Hi, r.LoIncl, r.HiIncl = v, v, true, true
		case sql.OpLt, sql.OpLe:
			r.Hi, r.HiIncl = v, op == sql.OpLe
		case sql.OpGt, sql.OpGe:
			r.Lo, r.LoIncl = v, op == sql.OpGe
		default:
			return r, false
		}
	case *plan.BetweenPred:
		col, _ = x.Expr.(*plan.ColExpr)
		if col == nil || !isValue(x.Lo) || !isValue(x.Hi) {
			return r, false
		}
		r.Lo, r.Hi, r.LoIncl, r.HiIncl = x.Lo, x.Hi, true, true
	default:
		return r, false
	}
	if _, ok := t.Indexes[col.Idx]; !ok {
		return r, false
	}
	r.Col = col.Idx
	return r, true
}

// isValue reports whether e is known before the scan opens.
func isValue(e plan.Expr) bool {
	switch e.(type) {
	case *plan.ConstExpr, *plan.ParamExpr:
		return true
	}
	return false
}

// indexScanSelf prices a keyed scan with the index formula: one probe
// whose matches are the entries in range.
func (o *Optimizer) indexScanSelf(s *plan.Scan) float64 {
	clustering := 0.0
	if idx, ok := s.Table.Indexes[s.Key.Col]; ok {
		clustering = idx.Clustering
	}
	return o.indexJoinSelf(1, s.Key.EstMatches, s.Est().Rows,
		s.Table.NumPages(), float64(s.Table.Heap.NumTuples()), clustering)
}

// Target chooses how an UPDATE or DELETE reads its target table t: the
// access path a SELECT over t alone with the same WHERE would get. It
// returns the key range to read t through, nil for a table scan.
func (o *Optimizer) Target(t *catalog.Table, where []sql.Predicate) (*plan.KeyRange, error) {
	binding := strings.ToLower(t.Name)
	schema := requalify(t.Schema, binding)
	q := &Query{Rels: []Rel{{Binding: binding, Table: t, Schema: schema, Out: schema}}}
	for _, p := range where {
		pr, _, err := q.classify(p)
		if err != nil {
			return nil, err
		}
		q.Rels[0].LocalPreds = append(q.Rels[0].LocalPreds, pr)
	}
	leaf, err := o.buildLeaf(q, 0)
	if err != nil {
		return nil, err
	}
	return leaf.node.(*plan.Scan).Key, nil
}
