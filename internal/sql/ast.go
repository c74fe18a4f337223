package sql

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is any scalar expression node.
type Expr interface {
	// SQL renders the expression back to SQL text, used when the
	// re-optimizer generates the remainder query.
	SQL() string
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Star is the `*` select item (optionally qualified, `t.*`). The
// analyzer expands it to the referenced relations' columns before
// planning; no later stage ever sees one.
type Star struct {
	// Table restricts the expansion to one relation's binding; empty
	// expands every FROM relation in order.
	Table string
}

// SQL implements Expr.
func (s *Star) SQL() string {
	if s.Table == "" {
		return "*"
	}
	return s.Table + ".*"
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// SQL implements Expr.
func (l *Literal) SQL() string {
	switch l.Value.Kind() {
	case types.KindString:
		return "'" + strings.ReplaceAll(l.Value.Str(), "'", "''") + "'"
	case types.KindDate:
		return "date '" + l.Value.String() + "'"
	case types.KindNull:
		return "NULL"
	default:
		return l.Value.String()
	}
}

// HostVar is a host-language variable placeholder (":v1"), bound at
// execution time. Host variables are one of the paper's named sources of
// optimizer estimation error: their values are unknown at plan time.
type HostVar struct {
	Name string
}

// SQL implements Expr.
func (h *HostVar) SQL() string { return ":" + h.Name }

// BinaryExpr is an arithmetic expression.
type BinaryExpr struct {
	Op          byte // '+', '-', '*', '/'
	Left, Right Expr
}

// SQL implements Expr.
func (b *BinaryExpr) SQL() string {
	return fmt.Sprintf("(%s %c %s)", b.Left.SQL(), b.Op, b.Right.SQL())
}

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggSum AggFunc = iota
	AggAvg
	AggCount
	AggMin
	AggMax
)

var aggSQLNames = [...]string{"SUM", "AVG", "COUNT", "MIN", "MAX"}

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	if int(f) < len(aggSQLNames) {
		return aggSQLNames[f]
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggExpr is an aggregate invocation. A nil Arg means COUNT(*).
type AggExpr struct {
	Func AggFunc
	Arg  Expr
}

// SQL implements Expr.
func (a *AggExpr) SQL() string {
	if a.Arg == nil {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Arg.SQL() + ")"
}

// CompareOp identifies a comparison operator.
type CompareOp uint8

// Supported comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opSpellings = [...]string{"=", "<>", "<", "<=", ">", ">="}

// String returns the SQL spelling of the operator.
func (o CompareOp) String() string {
	if int(o) < len(opSpellings) {
		return opSpellings[o]
	}
	return fmt.Sprintf("CompareOp(%d)", uint8(o))
}

// Negate returns the complementary operator.
func (o CompareOp) Negate() CompareOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	default:
		return OpLt
	}
}

// Flip returns the operator with its operands swapped: "5 < col" is
// "col > 5".
func (o CompareOp) Flip() CompareOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// Predicate is a boolean condition. The WHERE clause is a conjunction of
// predicates (the subset has AND but not OR, which covers the paper's
// workload).
type Predicate interface {
	SQL() string
}

// Operands returns the expressions a predicate tests.
func Operands(p Predicate) []Expr {
	switch x := p.(type) {
	case *ComparePred:
		return []Expr{x.Left, x.Right}
	case *BetweenPred:
		return []Expr{x.Expr, x.Lo, x.Hi}
	case *InPred:
		return append([]Expr{x.Expr}, x.List...)
	case *LikePred:
		return []Expr{x.Expr}
	}
	return nil
}

// HasHostVar reports whether any operand of the predicate contains a
// host-variable reference, whose value planning does not know.
func HasHostVar(p Predicate) bool {
	var has func(e Expr) bool
	has = func(e Expr) bool {
		switch x := e.(type) {
		case *HostVar:
			return true
		case *BinaryExpr:
			return has(x.Left) || has(x.Right)
		case *AggExpr:
			return x.Arg != nil && has(x.Arg)
		}
		return false
	}
	for _, e := range Operands(p) {
		if has(e) {
			return true
		}
	}
	return false
}

// ComparePred is "left op right".
type ComparePred struct {
	Op          CompareOp
	Left, Right Expr
}

// SQL implements Predicate.
func (p *ComparePred) SQL() string {
	return fmt.Sprintf("%s %s %s", p.Left.SQL(), p.Op, p.Right.SQL())
}

// BetweenPred is "expr BETWEEN lo AND hi".
type BetweenPred struct {
	Expr   Expr
	Lo, Hi Expr
}

// SQL implements Predicate.
func (p *BetweenPred) SQL() string {
	return fmt.Sprintf("%s between %s and %s", p.Expr.SQL(), p.Lo.SQL(), p.Hi.SQL())
}

// InPred is "expr IN (v1, v2, ...)".
type InPred struct {
	Expr Expr
	List []Expr
}

// SQL implements Predicate.
func (p *InPred) SQL() string {
	parts := make([]string, len(p.List))
	for i, e := range p.List {
		parts[i] = e.SQL()
	}
	return fmt.Sprintf("%s in (%s)", p.Expr.SQL(), strings.Join(parts, ", "))
}

// LikePred is "expr LIKE 'pattern'" where pattern uses % and _.
type LikePred struct {
	Expr    Expr
	Pattern string
}

// SQL implements Predicate.
func (p *LikePred) SQL() string {
	return fmt.Sprintf("%s like '%s'", p.Expr.SQL(), strings.ReplaceAll(p.Pattern, "'", "''"))
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS name
}

// SQL renders the item.
func (s SelectItem) SQL() string {
	if s.Alias != "" {
		return s.Expr.SQL() + " as " + s.Alias
	}
	return s.Expr.SQL()
}

// TableRef is one FROM-clause entry.
type TableRef struct {
	Name  string
	Alias string // empty if unaliased
}

// Binding returns the name predicates refer to the table by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SQL renders the reference.
func (t TableRef) SQL() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the item.
func (o OrderItem) SQL() string {
	if o.Desc {
		return o.Expr.SQL() + " desc"
	}
	return o.Expr.SQL()
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Predicate // conjunction
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 if absent
}

// SQL renders the statement back to SQL text.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, item := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.SQL())
	}
	b.WriteString(" from ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.SQL())
	}
	if len(s.Where) > 0 {
		b.WriteString(" where ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(p.SQL())
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.SQL())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " limit %d", s.Limit)
	}
	return b.String()
}
