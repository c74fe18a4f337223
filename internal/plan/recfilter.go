package plan

import (
	"cmp"
	"fmt"

	"repro/internal/sql"
	"repro/internal/types"
)

// RecordFilter is a scan's conjunctive filters compiled, for one Open,
// into a test over a stored record and its types.Shape (a
// storage.RecordFilter): each column it tests is read straight from its
// slot. It agrees with Pred.Test on the decoded tuple in every result and
// every error.
//
// A predicate with a bare column on one side and constants or bound host
// variables everywhere else — col <cmp> c in either order, BETWEEN, IN —
// compares the column's bytes where they lie: an INTEGER or DATE against
// a constant of its own kind in line, from its slot, anything else
// through types.CompareAt. Any other shape — LIKE, arithmetic, two
// columns, an unbound host variable, whose error every examined record
// must still raise — has its own Test called on views of the columns it
// reads. The views alias the page: the filter
// runs under the scanner's pin and keeps nothing it saw (DESIGN.md §16).
type RecordFilter struct {
	terms   []recTerm
	params  Params
	scratch types.Tuple
}

// recTerm is one compare of the conjunction: a predicate, or one bound
// of a BETWEEN.
type recTerm struct {
	col  int
	op   sql.CompareOp // against c, when list is nil
	c    types.Value
	ci   int64         // c's payload, if c is an INTEGER or a DATE
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
			continue
		}
		t := recTerm{pred: p}
		if cols, ok := PredColumns(p); ok {
			t.cols = cols
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
		switch t.c.Kind() {
		case types.KindInt:
			t.ci = t.c.Int()
		case types.KindDate:
			t.ci = t.c.Days()
		}
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

// Test implements storage.RecordFilter.
func (f *RecordFilter) Test(rec []byte, shape *types.Shape) (bool, error) {
	for i := range f.terms {
		t := &f.terms[i]
		if t.pred != nil {
			if ok, err := f.testPred(t, rec, shape); !ok || err != nil {
				return false, err
			}
			continue
		}
		if t.col >= shape.Width() {
			// What ColExpr.Eval says of a tuple this narrow.
			return false, fmt.Errorf("plan: column ordinal %d out of range", t.col)
		}
		kind, w, inline := shape.Word(rec, t.col)
		if kind == types.KindNull {
			return false, nil
		}
		if inline && t.list == nil && kind == t.c.Kind() && kind != types.KindFloat {
			// An INTEGER or a DATE against its own kind: the slot as it lies.
			if !holds(t.op, cmp.Compare(int64(w), t.ci)) {
				return false, nil
			}
			continue
		}
		ok := false
		for _, v := range t.list {
			if v.IsNull() {
				continue
			}
			c, err := types.CompareAt(rec, shape, t.col, v)
			if err != nil {
				return false, err
			}
			if ok = c == 0; ok {
				break
			}
		}
		if t.list == nil && !t.c.IsNull() {
			c, err := types.CompareAt(rec, shape, t.col, t.c)
			if err != nil {
				return false, err
			}
			ok = holds(t.op, c)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// holds reports whether a comparison that came out c satisfies op.
func holds(op sql.CompareOp, c int) bool {
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}

// testPred tests a predicate of no compiled shape on views of the
// columns it reads, each at its own ordinal in the scratch tuple as wide
// as the record: a column the predicate reads and the record lacks is
// out of its range, as it is of the decoded tuple's.
func (f *RecordFilter) testPred(t *recTerm, rec []byte, shape *types.Shape) (bool, error) {
	n := shape.Width()
	if cap(f.scratch) < n {
		f.scratch = make(types.Tuple, n)
	}
	probe := f.scratch[:n]
	var err error
	for i := 0; t.cols == nil && i < n && err == nil; i++ {
		probe[i], err = types.View(rec, shape, i)
	}
	for _, c := range t.cols {
		if c < n && err == nil {
			probe[c], err = types.View(rec, shape, c)
		}
	}
	if err != nil {
		return false, err
	}
	return t.pred.Test(probe, f.params)
}
