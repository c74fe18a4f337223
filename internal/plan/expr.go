// Package plan defines physical query execution plans: operator nodes
// annotated with the optimizer's estimates (the paper's "annotated query
// execution plan", §2.1), and the compiled expressions those operators
// evaluate.
//
// Plans carry both the executable form of every predicate and the
// original SQL AST form, because the re-optimizer must be able to
// regenerate SQL text for the remainder of a partially-executed query
// (§2.4, Figure 6).
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// Params maps host-variable names to their runtime bindings. The values
// of host variables are unknown at optimization time — one of the paper's
// named sources of estimation error.
type Params map[string]types.Value

// Expr is a compiled scalar expression evaluated against a tuple.
type Expr interface {
	Eval(t types.Tuple, p Params) (types.Value, error)
	// Kind is the static result kind, used to type plan output schemas.
	Kind() types.Kind
	String() string
}

// ColExpr reads a column by ordinal.
type ColExpr struct {
	Idx int
	Col types.Column // for display and schema derivation
}

// Eval implements Expr.
func (e *ColExpr) Eval(t types.Tuple, _ Params) (types.Value, error) {
	if e.Idx < 0 || e.Idx >= len(t) {
		return types.Null(), fmt.Errorf("plan: column ordinal %d out of range", e.Idx)
	}
	return t[e.Idx], nil
}

// Kind implements Expr.
func (e *ColExpr) Kind() types.Kind { return e.Col.Kind }

func (e *ColExpr) String() string { return e.Col.QualifiedName() }

// ConstExpr is a literal.
type ConstExpr struct {
	Val types.Value
}

// Eval implements Expr.
func (e *ConstExpr) Eval(types.Tuple, Params) (types.Value, error) { return e.Val, nil }

// Kind implements Expr.
func (e *ConstExpr) Kind() types.Kind { return e.Val.Kind() }

func (e *ConstExpr) String() string { return e.Val.String() }

// ParamExpr reads a host variable at run time.
type ParamExpr struct {
	Name string
	// Hint is the kind the optimizer assumes for estimation; execution
	// uses the actual bound value's kind.
	Hint types.Kind
}

// Eval implements Expr.
func (e *ParamExpr) Eval(_ types.Tuple, p Params) (types.Value, error) {
	v, ok := p[e.Name]
	if !ok {
		return types.Null(), fmt.Errorf("plan: unbound host variable :%s", e.Name)
	}
	return v, nil
}

// Kind implements Expr.
func (e *ParamExpr) Kind() types.Kind { return e.Hint }

func (e *ParamExpr) String() string { return ":" + e.Name }

// BinExpr is compiled arithmetic.
type BinExpr struct {
	Op          byte
	Left, Right Expr
}

// Eval implements Expr.
func (e *BinExpr) Eval(t types.Tuple, p Params) (types.Value, error) {
	l, err := e.Left.Eval(t, p)
	if err != nil {
		return types.Null(), err
	}
	r, err := e.Right.Eval(t, p)
	if err != nil {
		return types.Null(), err
	}
	switch e.Op {
	case '+':
		return l.Add(r)
	case '-':
		return l.Sub(r)
	case '*':
		return l.Mul(r)
	case '/':
		return l.Div(r)
	default:
		return types.Null(), fmt.Errorf("plan: unknown operator %c", e.Op)
	}
}

// Kind implements Expr.
func (e *BinExpr) Kind() types.Kind {
	if e.Left.Kind() == types.KindFloat || e.Right.Kind() == types.KindFloat {
		return types.KindFloat
	}
	if e.Left.Kind() == types.KindDate {
		return types.KindDate
	}
	return e.Left.Kind()
}

func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.Left, e.Op, e.Right)
}

// Pred is a compiled boolean predicate.
type Pred interface {
	Test(t types.Tuple, p Params) (bool, error)
	String() string
}

// CmpPred compares two expressions. NULL on either side fails the
// predicate, per SQL three-valued logic collapsed to filtering.
type CmpPred struct {
	Op          sql.CompareOp
	Left, Right Expr
}

// Test implements Pred.
func (p *CmpPred) Test(t types.Tuple, params Params) (bool, error) {
	l, err := p.Left.Eval(t, params)
	if err != nil {
		return false, err
	}
	r, err := p.Right.Eval(t, params)
	if err != nil {
		return false, err
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	c := l.Compare(r)
	switch p.Op {
	case sql.OpEq:
		return c == 0, nil
	case sql.OpNe:
		return c != 0, nil
	case sql.OpLt:
		return c < 0, nil
	case sql.OpLe:
		return c <= 0, nil
	case sql.OpGt:
		return c > 0, nil
	case sql.OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("plan: unknown comparison %v", p.Op)
	}
}

func (p *CmpPred) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// BetweenPred tests lo <= expr <= hi.
type BetweenPred struct {
	Expr   Expr
	Lo, Hi Expr
}

// Test implements Pred.
func (p *BetweenPred) Test(t types.Tuple, params Params) (bool, error) {
	v, err := p.Expr.Eval(t, params)
	if err != nil {
		return false, err
	}
	lo, err := p.Lo.Eval(t, params)
	if err != nil {
		return false, err
	}
	hi, err := p.Hi.Eval(t, params)
	if err != nil {
		return false, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return false, nil
	}
	return v.Compare(lo) >= 0 && v.Compare(hi) <= 0, nil
}

func (p *BetweenPred) String() string {
	return fmt.Sprintf("%s between %s and %s", p.Expr, p.Lo, p.Hi)
}

// InPred tests membership in a literal list.
type InPred struct {
	Expr Expr
	List []Expr
}

// Test implements Pred.
func (p *InPred) Test(t types.Tuple, params Params) (bool, error) {
	v, err := p.Expr.Eval(t, params)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	for _, le := range p.List {
		lv, err := le.Eval(t, params)
		if err != nil {
			return false, err
		}
		if !lv.IsNull() && v.Compare(lv) == 0 {
			return true, nil
		}
	}
	return false, nil
}

func (p *InPred) String() string {
	parts := make([]string, len(p.List))
	for i, e := range p.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s in (%s)", p.Expr, strings.Join(parts, ", "))
}

// LikePred matches SQL LIKE patterns with % and _ wildcards.
type LikePred struct {
	Expr    Expr
	Pattern string
}

// Test implements Pred.
func (p *LikePred) Test(t types.Tuple, params Params) (bool, error) {
	v, err := p.Expr.Eval(t, params)
	if err != nil {
		return false, err
	}
	if v.IsNull() || v.Kind() != types.KindString {
		return false, nil
	}
	return likeMatch(v.Str(), p.Pattern), nil
}

func (p *LikePred) String() string {
	return fmt.Sprintf("%s like '%s'", p.Expr, p.Pattern)
}

// likeMatch implements LIKE with % (any run) and _ (any one byte) by
// greedy backtracking, linear in practice on the catalog-style patterns
// the workload uses.
func likeMatch(s, pat string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		if pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]) {
			si++
			pi++
			continue
		}
		if pi < len(pat) && pat[pi] == '%' {
			star = pi
			starSi = si
			pi++
			continue
		}
		if star >= 0 {
			starSi++
			si = starSi
			pi = star + 1
			continue
		}
		return false
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// PredColumns returns, ascending and without duplicates, the tuple
// ordinals the predicates read — everything a scan has to decode before
// it can test them; never nil when ok. ok is false when a predicate, or
// an expression inside one, is of a type this function does not know;
// the caller must then hand the predicates whole tuples.
func PredColumns(preds ...Pred) (cols []int, ok bool) {
	cols = []int{}
	for _, p := range preds {
		var exprs []Expr
		switch x := p.(type) {
		case *CmpPred:
			exprs = []Expr{x.Left, x.Right}
		case *BetweenPred:
			exprs = []Expr{x.Expr, x.Lo, x.Hi}
		case *InPred:
			exprs = append([]Expr{x.Expr}, x.List...)
		case *LikePred:
			exprs = []Expr{x.Expr}
		default:
			return nil, false
		}
		for _, e := range exprs {
			if cols, ok = exprColumns(e, cols); !ok {
				return nil, false
			}
		}
	}
	slices.Sort(cols)
	return slices.Compact(cols), true
}

func exprColumns(e Expr, cols []int) ([]int, bool) {
	switch x := e.(type) {
	case *ColExpr:
		// A negative ordinal fails in Eval; leave that to a whole tuple.
		return append(cols, x.Idx), x.Idx >= 0
	case *ConstExpr, *ParamExpr:
		return cols, true
	case *BinExpr:
		cols, ok := exprColumns(x.Left, cols)
		if !ok {
			return nil, false
		}
		return exprColumns(x.Right, cols)
	default:
		return nil, false
	}
}
