// Package optimizer implements a System-R style query optimizer: bottom-up
// dynamic-programming join enumeration over left-deep trees, a cost model
// expressed in the simulator's cost units (so optimizer estimates and
// measured execution are directly comparable), histogram-based
// selectivity estimation, and per-operator memory-demand annotation.
//
// Every plan it produces is an annotated query execution plan in the
// paper's sense (§2.1): each node carries the optimizer's estimates of
// output cardinality, size, cost, and memory demands, which is what the
// run-time statistics are later compared against.
package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// Rel is one FROM-clause relation, with the predicates that touch only
// it pushed down.
type Rel struct {
	Binding string
	Table   *catalog.Table
	// Schema is the table schema re-qualified with the binding name, so
	// alias references resolve.
	Schema *types.Schema
	// LocalPreds reference only this relation.
	LocalPreds []*PredRef
	// Cols is the relation's required column set: ascending, the table
	// ordinals something above the relation's scan reads — the select
	// list, GROUP BY, and every join or other cross-relation predicate.
	// (ORDER BY names select-list outputs, so it adds nothing.) Columns
	// that only LocalPreds read are not in it: those are tested inside
	// the scan and never leave it. Nil means every column: SELECT *, a
	// query that does use them all, and virtual tables, whose rows are
	// not decoded from pages.
	Cols []int
	// Out is Schema at Cols — what the relation's scan emits.
	Out *types.Schema
}

// PredKind classifies a conjunct.
type PredKind uint8

// Predicate classes, in the order the optimizer cares about them.
const (
	PredLocal    PredKind = iota // references a single relation
	PredEquiJoin                 // rel1.col = rel2.col
	PredOther                    // any other cross-relation predicate
)

// PredRef is one analyzed WHERE conjunct.
type PredRef struct {
	AST  sql.Predicate
	Kind PredKind
	// Rels are the indexes (into Query.Rels) of referenced relations.
	Rels []int
	// For PredLocal: the referenced columns of the single relation.
	LocalCols []int
	// For PredEquiJoin: the two endpoints.
	LeftRel, LeftCol   int
	RightRel, RightCol int
}

// RelMask returns the bitmask of relations the predicate references.
func (p *PredRef) RelMask() uint32 {
	var m uint32
	for _, r := range p.Rels {
		m |= 1 << uint(r)
	}
	return m
}

// Query is the analyzed form the DP enumerator works from.
type Query struct {
	Stmt  *sql.SelectStmt
	Rels  []Rel
	Preds []*PredRef
	// HasAggregate reports whether the select list contains aggregates
	// or the statement has GROUP BY / DISTINCT.
	HasAggregate bool
}

// Analyze resolves a parsed statement against the catalog and classifies
// its predicates.
func Analyze(cat *catalog.Catalog, stmt *sql.SelectStmt) (*Query, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("optimizer: query has no FROM clause")
	}
	if len(stmt.From) > 16 {
		return nil, fmt.Errorf("optimizer: more than 16 relations")
	}
	q := &Query{Stmt: stmt}
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		binding := strings.ToLower(ref.Binding())
		if seen[binding] {
			return nil, fmt.Errorf("optimizer: duplicate relation binding %q", binding)
		}
		seen[binding] = true
		tbl, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		q.Rels = append(q.Rels, Rel{
			Binding: binding,
			Table:   tbl,
			Schema:  requalify(tbl.Schema, binding),
		})
	}
	// used collects every (relation, column) read above the scans.
	var used [][2]int
	for _, p := range stmt.Where {
		pr, cols, err := q.classify(p)
		if err != nil {
			return nil, err
		}
		q.Preds = append(q.Preds, pr)
		if pr.Kind == PredLocal {
			q.Rels[pr.Rels[0]].LocalPreds = append(q.Rels[pr.Rels[0]].LocalPreds, pr)
		} else {
			used = append(used, cols...)
		}
	}
	if expanded, err := expandStars(stmt, q.Rels); err != nil {
		return nil, err
	} else if expanded != nil {
		// Planning proceeds on a shallow clone with the concrete select
		// list; the caller's statement (and the plan-cache key derived
		// from its SQL) keeps the star.
		stmt = expanded
		q.Stmt = expanded
	}
	q.HasAggregate = len(stmt.GroupBy) > 0 || stmt.Distinct
	for _, item := range stmt.Select {
		if _, ok := item.Expr.(*sql.AggExpr); ok {
			q.HasAggregate = true
		}
		if err := q.exprCols(item.Expr, &used); err != nil {
			return nil, err
		}
	}
	for _, g := range stmt.GroupBy {
		if err := q.exprCols(g, &used); err != nil {
			return nil, err
		}
	}
	// ORDER BY may reference select-list aliases, so unknown columns
	// there are checked at plan-build time instead.
	q.pruneColumns(used)
	return q, nil
}

// pruneColumns sets every relation's Cols and Out from the columns used
// above the scans.
func (q *Query) pruneColumns(used [][2]int) {
	need := make([][]bool, len(q.Rels))
	for i := range q.Rels {
		need[i] = make([]bool, q.Rels[i].Schema.Len())
	}
	for _, rc := range used {
		need[rc[0]][rc[1]] = true
	}
	for i := range q.Rels {
		rel := &q.Rels[i]
		rel.Out = rel.Schema
		var cols []int
		for c, ok := range need[i] {
			if ok {
				cols = append(cols, c)
			}
		}
		if len(cols) == len(need[i]) || rel.Table.Virtual != nil {
			continue
		}
		if len(cols) == 0 {
			// count(*) over the relation: a tuple of no values could
			// not be told from the end of the stream.
			cols = []int{0}
		}
		rel.Cols, rel.Out = cols, rel.Schema.Project(cols)
	}
}

// expandStars replaces `*` / `t.*` select items with explicit column
// references over the FROM relations, in relation order. It returns nil
// when the statement has no star (the common case pays one scan of the
// select list), or a shallow clone with the expanded list.
func expandStars(stmt *sql.SelectStmt, rels []Rel) (*sql.SelectStmt, error) {
	hasStar := false
	for _, item := range stmt.Select {
		if _, ok := item.Expr.(*sql.Star); ok {
			hasStar = true
			break
		}
	}
	if !hasStar {
		return nil, nil
	}
	var out []sql.SelectItem
	for _, item := range stmt.Select {
		star, ok := item.Expr.(*sql.Star)
		if !ok {
			out = append(out, item)
			continue
		}
		matched := false
		for i := range rels {
			r := &rels[i]
			if star.Table != "" && !strings.EqualFold(star.Table, r.Binding) {
				continue
			}
			matched = true
			for _, col := range r.Schema.Columns {
				out = append(out, sql.SelectItem{
					Expr: &sql.ColumnRef{Table: r.Binding, Name: col.Name},
				})
			}
		}
		if !matched {
			return nil, fmt.Errorf("optimizer: %s does not match any FROM relation", star.SQL())
		}
	}
	clone := *stmt
	clone.Select = out
	return &clone, nil
}

// requalify clones a schema with every column's table qualifier replaced
// by the binding name.
func requalify(s *types.Schema, binding string) *types.Schema {
	cols := make([]types.Column, s.Len())
	for i, c := range s.Columns {
		c.Table = binding
		cols[i] = c
	}
	return types.NewSchema(cols...)
}

// Owner resolves a column reference to its owning relation index and
// column ordinal. The re-optimizer's remainder-query generator uses it
// to decide which references must be redirected at the temp table.
func (q *Query) Owner(ref *sql.ColumnRef) (rel, col int, err error) {
	return q.resolveColumn(ref)
}

// resolveColumn finds which relation and column a reference names.
func (q *Query) resolveColumn(ref *sql.ColumnRef) (rel, col int, err error) {
	rel, col = -1, -1
	for ri := range q.Rels {
		// A reference one relation cannot place (unknown there, or
		// ambiguous there) may still be another's.
		ci, _ := q.Rels[ri].Schema.Find(ref.Table, ref.Name)
		if ci < 0 {
			continue
		}
		if rel >= 0 {
			return -1, -1, fmt.Errorf("optimizer: ambiguous column %q", ref.SQL())
		}
		rel, col = ri, ci
	}
	if rel < 0 {
		return -1, -1, fmt.Errorf("optimizer: unknown column %q", ref.SQL())
	}
	return rel, col, nil
}

// exprCols walks an expression collecting every column reference as
// (rel, col) pairs.
func (q *Query) exprCols(e sql.Expr, out *[][2]int) error {
	switch x := e.(type) {
	case *sql.ColumnRef:
		rel, col, err := q.resolveColumn(x)
		if err != nil {
			return err
		}
		*out = append(*out, [2]int{rel, col})
	case *sql.BinaryExpr:
		if err := q.exprCols(x.Left, out); err != nil {
			return err
		}
		return q.exprCols(x.Right, out)
	case *sql.AggExpr:
		if x.Arg != nil {
			return q.exprCols(x.Arg, out)
		}
	case *sql.Literal, *sql.HostVar:
	default:
		return fmt.Errorf("optimizer: unsupported expression %T", e)
	}
	return nil
}

// classify determines a conjunct's kind and endpoints, and returns the
// (relation, column) pairs it reads.
func (q *Query) classify(p sql.Predicate) (*PredRef, [][2]int, error) {
	var cols [][2]int
	pr := &PredRef{AST: p}
	operands := sql.Operands(p)
	if operands == nil {
		return nil, nil, fmt.Errorf("optimizer: unsupported predicate %T", p)
	}
	for _, e := range operands {
		if err := q.exprCols(e, &cols); err != nil {
			return nil, nil, err
		}
	}

	relSet := map[int]bool{}
	for _, rc := range cols {
		relSet[rc[0]] = true
	}
	for r := range relSet {
		pr.Rels = append(pr.Rels, r)
	}
	sortInts(pr.Rels)

	switch len(relSet) {
	case 0:
		// Constant predicate; treat as local to the first relation.
		pr.Kind = PredLocal
		pr.Rels = []int{0}
	case 1:
		pr.Kind = PredLocal
		for _, rc := range cols {
			pr.LocalCols = append(pr.LocalCols, rc[1])
		}
	case 2:
		pr.Kind = PredOther
		// An equi-join is a ComparePred "col = col" across relations.
		if cmp, ok := p.(*sql.ComparePred); ok && cmp.Op == sql.OpEq {
			lref, lok := cmp.Left.(*sql.ColumnRef)
			rref, rok := cmp.Right.(*sql.ColumnRef)
			if lok && rok {
				lr, lc, _ := q.resolveColumn(lref)
				rr, rc, _ := q.resolveColumn(rref)
				if lr >= 0 && rr >= 0 && lr != rr {
					pr.Kind = PredEquiJoin
					pr.LeftRel, pr.LeftCol = lr, lc
					pr.RightRel, pr.RightCol = rr, rc
				}
			}
		}
	default:
		return nil, nil, fmt.Errorf("optimizer: predicate touches %d relations: %s", len(relSet), p.SQL())
	}
	return pr, cols, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
