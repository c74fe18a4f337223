package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/sql"
)

// Selectivity estimation from catalog statistics. Host variables are
// unknown at optimization time, so predicates involving them fall back to
// the textbook defaults — precisely the estimation-error source the paper
// names (§1). Literal-only predicates consult the column's histogram.

// colStats fetches a relation column's catalog statistics, nil if
// absent, via the table's stats lock — committed writes may swap the
// column-stats pointers while a concurrent query plans.
func colStats(t *catalog.Table, col int) *catalog.ColumnStats {
	return t.ColStat(col)
}

// colHist returns the column's histogram if one exists.
func colHist(t *catalog.Table, col int) *histogram.Histogram {
	if cs := colStats(t, col); cs.HasHistogram() {
		return cs.Hist
	}
	return nil
}

// colNDV returns the column's distinct-value estimate, defaulting to a
// tenth of the cardinality when unknown. A known count is capped by the
// cardinality: the commit-time sketch cannot forget a deleted value.
func colNDV(t *catalog.Table, col int) float64 {
	card, _ := t.Stats()
	if cs := colStats(t, col); cs != nil && cs.Distinct > 0 {
		if card > 0 {
			return math.Min(cs.Distinct, card)
		}
		return cs.Distinct
	}
	if card > 0 {
		return math.Max(1, card/10)
	}
	return 10
}

// litFloat extracts the float image of a literal operand, or NaN for
// host variables and non-literals.
func litFloat(e sql.Expr) float64 {
	lit, ok := e.(*sql.Literal)
	if !ok {
		return math.NaN()
	}
	if lit.Value.IsNull() {
		return math.NaN()
	}
	return lit.Value.AsFloat()
}

// litShift evaluates literal arithmetic like "date '1996-03-01' + 90" at
// optimization time. Anything non-constant yields NaN.
func litShift(e sql.Expr) float64 {
	switch x := e.(type) {
	case *sql.Literal:
		return litFloat(x)
	case *sql.BinaryExpr:
		l, r := litShift(x.Left), litShift(x.Right)
		if math.IsNaN(l) || math.IsNaN(r) {
			return math.NaN()
		}
		switch x.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			if r == 0 {
				return math.NaN()
			}
			return l / r
		}
	}
	return math.NaN()
}

// localSelectivity estimates the fraction of rel's rows a single local
// predicate keeps. hostVarSel, when > 0, overrides the default guesses
// for predicates whose operands involve host variables (the parametric
// plan scenarios); 0 keeps the textbook defaults.
func localSelectivity(rel *Rel, pr *PredRef, hostVarSel float64) float64 {
	if hostVarSel > 0 && sql.HasHostVar(pr.AST) && !KeyEquality(rel.Table, pr.AST) {
		return clamp01(hostVarSel)
	}
	return localSelectivityLiteral(rel, pr)
}

// KeyEquality reports whether p, a predicate local to a relation over
// t, equates a declared key column of t with a literal or a host
// variable: whatever the value, it keeps at most one row, so its
// estimate is exact.
func KeyEquality(t *catalog.Table, p sql.Predicate) bool {
	cmp, ok := p.(*sql.ComparePred)
	if !ok || cmp.Op != sql.OpEq {
		return false
	}
	ref, ok := cmp.Left.(*sql.ColumnRef)
	other := cmp.Right
	if !ok {
		ref, ok = cmp.Right.(*sql.ColumnRef)
		other = cmp.Left
	}
	if !ok {
		return false
	}
	switch other.(type) {
	case *sql.Literal, *sql.HostVar:
	default:
		return false
	}
	col, err := t.Schema.Resolve("", ref.Name)
	return err == nil && t.Schema.Columns[col].Key
}

// localSelectivityLiteral estimates selectivity from literals and
// catalog statistics.
func localSelectivityLiteral(rel *Rel, pr *PredRef) float64 {
	t := rel.Table
	switch p := pr.AST.(type) {
	case *sql.ComparePred:
		// Identify the column side and the constant side.
		colRef, colOK := p.Left.(*sql.ColumnRef)
		val := litShift(p.Right)
		op := p.Op
		if !colOK {
			if cr, ok := p.Right.(*sql.ColumnRef); ok {
				colRef, colOK = cr, true
				val = litShift(p.Left)
				op = p.Op.Flip()
			}
		}
		if !colOK {
			return histogram.DefaultRangeSelectivity
		}
		col, err := rel.Schema.Resolve(colRef.Table, colRef.Name)
		if err != nil {
			return histogram.DefaultRangeSelectivity
		}
		h := colHist(t, col)
		if math.IsNaN(val) {
			// Host variable or complex operand: defaults, except that an
			// equality on a declared key keeps one row, whatever its value.
			if KeyEquality(t, p) {
				return 1 / colNDV(t, col)
			}
			if op == sql.OpEq {
				return histogram.DefaultEqSelectivity
			}
			return histogram.DefaultRangeSelectivity
		}
		switch op {
		case sql.OpEq:
			if h != nil {
				return h.EstimateEq(val)
			}
			return 1 / colNDV(t, col)
		case sql.OpNe:
			if h != nil {
				return 1 - h.EstimateEq(val)
			}
			return 1 - 1/colNDV(t, col)
		case sql.OpLt, sql.OpLe:
			if h != nil {
				return h.EstimateRange(math.NaN(), val)
			}
			return rangeFromMinMax(t, col, math.Inf(-1), val)
		case sql.OpGt, sql.OpGe:
			if h != nil {
				return h.EstimateRange(val, math.NaN())
			}
			return rangeFromMinMax(t, col, val, math.Inf(1))
		}
		return histogram.DefaultRangeSelectivity

	case *sql.BetweenPred:
		colRef, ok := p.Expr.(*sql.ColumnRef)
		if !ok {
			return histogram.DefaultRangeSelectivity
		}
		col, err := rel.Schema.Resolve(colRef.Table, colRef.Name)
		if err != nil {
			return histogram.DefaultRangeSelectivity
		}
		lo, hi := litShift(p.Lo), litShift(p.Hi)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return histogram.DefaultRangeSelectivity
		}
		if h := colHist(t, col); h != nil {
			return h.EstimateRange(lo, hi)
		}
		return rangeFromMinMax(t, col, lo, hi)

	case *sql.InPred:
		colRef, ok := p.Expr.(*sql.ColumnRef)
		if !ok {
			return histogram.DefaultRangeSelectivity
		}
		col, err := rel.Schema.Resolve(colRef.Table, colRef.Name)
		if err != nil {
			return histogram.DefaultRangeSelectivity
		}
		h := colHist(t, col)
		sel := 0.0
		for _, item := range p.List {
			v := litShift(item)
			if math.IsNaN(v) {
				sel += histogram.DefaultEqSelectivity
			} else if h != nil {
				sel += h.EstimateEq(v)
			} else {
				sel += 1 / colNDV(t, col)
			}
		}
		return clamp01(sel)

	case *sql.LikePred:
		// Prefix patterns are moderately selective; leading-% patterns
		// are near-opaque. These are the classic magic numbers.
		if len(p.Pattern) > 0 && p.Pattern[0] == '%' {
			return 0.25
		}
		return 0.05
	}
	return histogram.DefaultRangeSelectivity
}

// LocalSelectivity estimates the fraction of relation relIdx's rows the
// predicate keeps, from catalog statistics. The parametric choose-plan
// step calls it with host variables already substituted by their bound
// literal values.
func (q *Query) LocalSelectivity(relIdx int, p sql.Predicate) float64 {
	if relIdx < 0 || relIdx >= len(q.Rels) {
		return histogram.DefaultRangeSelectivity
	}
	return localSelectivityLiteral(&q.Rels[relIdx], &PredRef{AST: p})
}

// rangeFromMinMax interpolates a range selectivity from the column's
// min/max when no histogram exists.
func rangeFromMinMax(t *catalog.Table, col int, lo, hi float64) float64 {
	cs := colStats(t, col)
	if cs == nil || cs.Min.IsNull() || cs.Max.IsNull() {
		return histogram.DefaultRangeSelectivity
	}
	mn, mx := cs.Min.AsFloat(), cs.Max.AsFloat()
	if mx <= mn {
		return histogram.DefaultRangeSelectivity
	}
	from := math.Max(lo, mn)
	to := math.Min(hi, mx)
	if to < from {
		return 0
	}
	return clamp01((to - from) / (mx - mn))
}

// relSelectivity multiplies the selectivities of a relation's local
// predicates under the usual independence assumption — the assumption
// that correlated predicates break, which is one of the paper's error
// sources (§2.4 footnote 2).
func relSelectivity(rel *Rel, hostVarSel float64) float64 {
	sel := 1.0
	for _, pr := range rel.LocalPreds {
		sel *= localSelectivity(rel, pr, hostVarSel)
	}
	return clamp01(sel)
}

// joinSelectivity estimates the fraction of the cross product an
// equi-join keeps, preferring aligned base-table histograms and falling
// back to 1/max(V1,V2).
func joinSelectivity(q *Query, pr *PredRef) float64 {
	lt := q.Rels[pr.LeftRel].Table
	rt := q.Rels[pr.RightRel].Table
	lh, rh := colHist(lt, pr.LeftCol), colHist(rt, pr.RightCol)
	if lh != nil && rh != nil {
		return lh.EstimateJoin(rh)
	}
	return clamp01(1 / math.Max(colNDV(lt, pr.LeftCol), colNDV(rt, pr.RightCol)))
}

func clamp01(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
