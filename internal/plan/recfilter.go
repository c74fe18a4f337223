package plan

import (
	"fmt"
	"math"

	"repro/internal/sql"
	"repro/internal/types"
)

// RecordFilter is a scan's conjunctive filters compiled, for one Open,
// into a test over a stored record and the column offsets
// types.LocateColumns found in it (a storage.RecordFilter). It agrees
// with Pred.Test on the decoded tuple in every result and every error.
//
// A predicate with a bare column on one side and constants or bound host
// variables everywhere else — col <cmp> c in either order, BETWEEN, IN —
// compares the column's bytes where they lie (types.CompareAt). Any other
// shape — LIKE, arithmetic, two columns, an unbound host variable, whose
// error every examined record must still raise — has its own Test called
// on views of the columns it reads. The views alias the page: the filter
// runs under the scanner's pin and keeps nothing it saw (DESIGN.md §16).
type RecordFilter struct {
	terms   []recTerm
	upto    int
	params  Params
	scratch types.Tuple
}

// recTerm is one compare of the conjunction: a predicate, or one bound
// of a BETWEEN.
type recTerm struct {
	col  int
	op   sql.CompareOp // against c, when list is nil
	c    types.Value
	list []types.Value // IN: non-nil, equal to any

	pred Pred  // a predicate of no compiled shape, tested on views
	cols []int // what pred reads; nil = not known, every column
}

// CompileFilter compiles preds, a conjunction, under the host-variable
// bindings of one execution. No predicates compile to nil: no filter.
func CompileFilter(preds []Pred, params Params) *RecordFilter {
	if len(preds) == 0 {
		return nil
	}
	f := &RecordFilter{terms: make([]recTerm, 0, 2*len(preds)), params: params}
	for _, p := range preds {
		n := len(f.terms)
		if f.compile(p) {
			f.upto = max(f.upto, f.terms[n].col+1)
			continue
		}
		t := recTerm{pred: p}
		if cols, ok := PredColumns(p); !ok {
			f.upto = math.MaxInt
		} else if t.cols = cols; len(cols) > 0 {
			f.upto = max(f.upto, cols[len(cols)-1]+1)
		}
		f.terms = append(f.terms[:n], t)
	}
	return f
}

// compile appends p's terms if p has a compiled shape; the first bound of
// a BETWEEN whose second is not constant is for the caller to drop.
func (f *RecordFilter) compile(p Pred) bool {
	switch x := p.(type) {
	case *CmpPred:
		if x.Op > sql.OpGe {
			return false
		}
		if _, ok := x.Left.(*ColExpr); ok {
			return f.compare(x.Left, x.Op, x.Right)
		}
		// c op col ≡ col op' c: Compare is antisymmetric.
		flipped := [...]sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpGt, sql.OpGe, sql.OpLt, sql.OpLe}
		return f.compare(x.Right, flipped[x.Op], x.Left)
	case *BetweenPred:
		// Two compares fail on what BETWEEN fails on, in its order: the
		// column, then a NULL anywhere.
		return f.compare(x.Expr, sql.OpGe, x.Lo) && f.compare(x.Expr, sql.OpLe, x.Hi)
	case *InPred:
		col, ok := bareColumn(x.Expr)
		t := recTerm{col: col, list: make([]types.Value, len(x.List))}
		for i := 0; ok && i < len(x.List); i++ {
			ok = constant(x.List[i], f.params, &t.list[i])
		}
		if ok {
			f.terms = append(f.terms, t)
		}
		return ok
	}
	return false
}

// compare appends "col op c" if col is a bare column and c a constant.
func (f *RecordFilter) compare(col Expr, op sql.CompareOp, c Expr) bool {
	idx, ok := bareColumn(col)
	t := recTerm{col: idx, op: op}
	if ok = ok && constant(c, f.params, &t.c); ok {
		f.terms = append(f.terms, t)
	}
	return ok
}

// bareColumn returns the ordinal of e if e is a column and nothing else.
// A negative ordinal fails in Eval; that is left to the predicate's Test.
func bareColumn(e Expr) (int, bool) {
	c, ok := e.(*ColExpr)
	if !ok || c.Idx < 0 {
		return 0, false
	}
	return c.Idx, true
}

// constant stores e's value if e is a literal or a bound host variable.
func constant(e Expr, params Params, v *types.Value) (ok bool) {
	switch x := e.(type) {
	case *ConstExpr:
		*v, ok = x.Val, true
	case *ParamExpr:
		*v, ok = params[x.Name]
	}
	return ok
}

// Upto implements storage.RecordFilter.
func (f *RecordFilter) Upto() int { return f.upto }

// Test implements storage.RecordFilter.
func (f *RecordFilter) Test(rec []byte, offs []int) (bool, error) {
	for i := range f.terms {
		t := &f.terms[i]
		if t.pred != nil {
			if ok, err := f.testPred(t, rec, offs); !ok || err != nil {
				return false, err
			}
			continue
		}
		if t.col >= len(offs)-1 {
			// What ColExpr.Eval says of a tuple this narrow.
			return false, fmt.Errorf("plan: column ordinal %d out of range", t.col)
		}
		off := offs[t.col]
		if types.Kind(rec[off]) == types.KindNull {
			return false, nil
		}
		ok := false
		for _, v := range t.list {
			if ok = !v.IsNull() && types.CompareAt(rec, off, v) == 0; ok {
				break
			}
		}
		if t.list == nil && !t.c.IsNull() {
			switch c := types.CompareAt(rec, off, t.c); t.op {
			case sql.OpEq:
				ok = c == 0
			case sql.OpNe:
				ok = c != 0
			case sql.OpLt:
				ok = c < 0
			case sql.OpLe:
				ok = c <= 0
			case sql.OpGt:
				ok = c > 0
			case sql.OpGe:
				ok = c >= 0
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// testPred tests a predicate of no compiled shape on views of the
// columns it reads, each at its own ordinal in the scratch tuple. The
// tuple is as wide as the walk went: a column the predicate reads and the
// record lacks is out of its range, as it is of the decoded tuple's.
func (f *RecordFilter) testPred(t *recTerm, rec []byte, offs []int) (bool, error) {
	n := len(offs) - 1
	if cap(f.scratch) < n {
		f.scratch = make(types.Tuple, n)
	}
	probe := f.scratch[:n]
	for i := 0; t.cols == nil && i < n; i++ {
		probe[i] = types.View(rec, offs[i])
	}
	for _, c := range t.cols {
		if c < n {
			probe[c] = types.View(rec, offs[c])
		}
	}
	return t.pred.Test(probe, f.params)
}
