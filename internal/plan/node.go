package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/sql"
	"repro/internal/types"
)

// Est carries the optimizer's annotations for one plan node — the
// estimates the paper requires every plan to be "annotated" with (§2.1):
// output cardinality and size, execution cost, and the memory demands the
// Memory Manager allocates against.
type Est struct {
	Rows     float64 // estimated output cardinality
	Bytes    float64 // estimated output size in bytes
	Cost     float64 // cumulative cost of the subtree, simulated units
	SelfCost float64 // this node's own cost

	// Memory demands in bytes, zero for streaming operators. MemMin is
	// the least memory the operator can run with; MemMax lets it run
	// in one pass.
	MemMin, MemMax float64

	// MemStep marks operators whose benefit is a step function of
	// memory: a hash join avoids its extra pass only at MemMax, so the
	// Memory Manager grants it either MemMax or MemMin, never between.
	// Aggregates and sorts benefit incrementally and accept partial
	// top-ups — this is why the paper's Figure 3 gives the second join
	// its minimum and the leftover to the aggregate.
	MemStep bool

	// Grant is the Memory Manager's allocation in bytes. Zero means
	// not yet allocated.
	Grant float64
}

// Node is one operator of a physical plan. The tree is left-deep for
// joins, as produced by the System-R style optimizer.
type Node interface {
	Schema() *types.Schema
	Children() []Node
	Est() *Est
	// Label names the operator for plan display ("hash-join").
	Label() string
	// Describe renders the operator's arguments for plan display.
	Describe() string
}

// base provides the shared annotation storage.
type base struct {
	est Est
}

func (b *base) Est() *Est { return &b.est }

// Scan reads a base table sequentially, applying pushed-down filters and
// emitting only the columns the query uses above the scan.
type Scan struct {
	base
	Table   *catalog.Table
	Binding string // FROM-clause alias the query refers to the table by
	// Filters are applied as tuples stream out of the pages. They are
	// bound to the table's full schema, whatever Cols keeps: a column
	// only a filter reads is tested inside the scan and never emitted.
	Filters []Pred
	// FilterSQL preserves the original AST of each filter for
	// remainder-query regeneration.
	FilterSQL []sql.Predicate
	// Cols lists, ascending, the table ordinals the scan emits; nil
	// means every column (DML, virtual tables, SELECT *, hand-built
	// plans).
	Cols []int
	// Out is the scan's schema — the table's columns at Cols,
	// re-qualified by Binding. Everything above the scan resolves its
	// ordinals against it by name.
	Out *types.Schema
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.Out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string { return "seq-scan" }

// Describe implements Node.
func (s *Scan) Describe() string {
	d := s.Table.Name
	if s.Binding != "" && s.Binding != s.Table.Name {
		d += " as " + s.Binding
	}
	if len(s.Filters) > 0 {
		parts := make([]string, len(s.Filters))
		for i, f := range s.Filters {
			parts[i] = f.String()
		}
		d += " filter " + strings.Join(parts, " and ")
	}
	return d + describeCols(s.Cols, s.Out)
}

// describeCols renders a pruned leaf's kept columns, so that a plan
// display shows why its estimated bytes are a fraction of the table's.
func describeCols(cols []int, out *types.Schema) string {
	if cols == nil {
		return ""
	}
	names := make([]string, out.Len())
	for i, c := range out.Columns {
		names[i] = c.Name
	}
	return " cols " + strings.Join(names, ",")
}

// HashJoin joins Build (left) against Probe (right) on equality of the
// key columns. If the build side exceeds its memory grant it degrades to
// a Grace-style partitioned join with extra I/O passes.
type HashJoin struct {
	base
	Build, Probe Node
	BuildKeys    []int // ordinals into Build.Schema()
	ProbeKeys    []int // ordinals into Probe.Schema()
	// JoinSQL preserves the join predicate ASTs for regeneration.
	JoinSQL []sql.Predicate
	// Out is the join's schema, Build's columns then Probe's, resolved
	// once when the optimizer makes the node: Schema is asked per node
	// and column by SCIA and would otherwise concatenate, recursively,
	// on every call. Clone carries it over; the wrappers later put
	// around a child (collector, exchange) have their input's schema,
	// so it stays right. Nil on a hand-built plan, which pays per call.
	Out *types.Schema
}

// BuildFudge is a hash table's overhead over its build side: a build of
// S bytes needs BuildFudge×S bytes of memory to join in one pass. The
// executor charges it; the optimizer sizes demands and spills with it.
const BuildFudge = 1.2

// Schema implements Node.
func (j *HashJoin) Schema() *types.Schema {
	if j.Out != nil {
		return j.Out
	}
	return j.Build.Schema().Concat(j.Probe.Schema())
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Build, j.Probe} }

// Label implements Node.
func (j *HashJoin) Label() string { return "hash-join" }

// Describe implements Node.
func (j *HashJoin) Describe() string {
	parts := make([]string, len(j.BuildKeys))
	bs, ps := j.Build.Schema(), j.Probe.Schema()
	for i := range j.BuildKeys {
		parts[i] = fmt.Sprintf("%s = %s",
			bs.Columns[j.BuildKeys[i]].QualifiedName(),
			ps.Columns[j.ProbeKeys[i]].QualifiedName())
	}
	return strings.Join(parts, " and ")
}

// IndexJoin is an indexed nested-loops join: for each outer tuple it
// probes the B+tree on Table's InnerCol and fetches matches.
type IndexJoin struct {
	base
	Outer    Node
	Table    *catalog.Table
	Binding  string
	OuterKey int // ordinal into Outer.Schema()
	InnerCol int // ordinal into Table.Schema (index must exist)
	// InnerFilters apply to fetched inner tuples; like Scan.Filters they
	// are bound to the table's full schema.
	InnerFilters []Pred
	// EstMatches is the optimizer's expected index matches per probe,
	// recorded so the dispatcher can re-cost the join under improved
	// outer-cardinality estimates.
	EstMatches float64
	// SQL forms for regeneration.
	JoinSQL  []sql.Predicate
	InnerSQL []sql.Predicate
	// InnerCols lists, ascending, the inner table ordinals the join
	// emits after the outer tuple's values; nil means every column.
	InnerCols []int
	// InnerOut is the inner side's schema: the table's columns at
	// InnerCols, re-qualified by Binding.
	InnerOut *types.Schema
	// Out is the join's schema, Outer's columns then InnerOut's; see
	// HashJoin.Out.
	Out *types.Schema
}

// InnerKey returns the inner join column as InnerOut names it. The join
// column is always among InnerCols: the predicate that made the join is
// a use of it.
func (j *IndexJoin) InnerKey() types.Column {
	at := j.InnerCol
	if j.InnerCols != nil {
		at, _ = slices.BinarySearch(j.InnerCols, j.InnerCol)
	}
	return j.InnerOut.Columns[at]
}

// Schema implements Node.
func (j *IndexJoin) Schema() *types.Schema {
	if j.Out != nil {
		return j.Out
	}
	return j.Outer.Schema().Concat(j.InnerOut)
}

// Children implements Node.
func (j *IndexJoin) Children() []Node { return []Node{j.Outer} }

// Label implements Node.
func (j *IndexJoin) Label() string { return "indexed-join" }

// Describe implements Node.
func (j *IndexJoin) Describe() string {
	return fmt.Sprintf("%s = %s (index on %s)",
		j.Outer.Schema().Columns[j.OuterKey].QualifiedName(),
		j.InnerKey().QualifiedName(),
		j.Table.Name) + describeCols(j.InnerCols, j.InnerOut)
}

// CollectorSpec says which statistics a statistics-collector operator
// gathers (§2.2): cardinality and average tuple size always; histograms
// on the listed columns; distinct-value counts on the listed column sets.
type CollectorSpec struct {
	// HistCols are ordinals of columns to build run-time histograms on
	// (attributes used in later join or selection predicates).
	HistCols []int
	// HistFamily is the histogram family to build. Run-time histograms
	// can be "very specific" to their one consumer (§2.2), so the SCIA
	// picks the family per use.
	HistFamily histogram.Family
	// UniqueCols are sets of ordinals whose combined distinct count is
	// needed (attributes of a later GROUP BY).
	UniqueCols [][]int
	// ReservoirSize is the per-histogram sample capacity (one page).
	ReservoirSize int
	// Seed makes sampling deterministic.
	Seed int64
}

// Empty reports whether the collector gathers only the free statistics
// (cardinality, size, min/max).
func (s CollectorSpec) Empty() bool {
	return len(s.HistCols) == 0 && len(s.UniqueCols) == 0
}

// Collector is a statistics-collector operator: it passes tuples through
// unchanged while gathering the statistics in Spec. It reports an
// Observed snapshot when its input is exhausted.
type Collector struct {
	base
	Input Node
	Spec  CollectorSpec
	// ID identifies the collector in dispatcher messages.
	ID int
}

// Schema implements Node.
func (c *Collector) Schema() *types.Schema { return c.Input.Schema() }

// Children implements Node.
func (c *Collector) Children() []Node { return []Node{c.Input} }

// Label implements Node.
func (c *Collector) Label() string { return "statistics-collector" }

// Describe implements Node.
func (c *Collector) Describe() string {
	var parts []string
	sch := c.Input.Schema()
	for _, col := range c.Spec.HistCols {
		parts = append(parts, "histogram:"+sch.Columns[col].QualifiedName())
	}
	for _, set := range c.Spec.UniqueCols {
		names := make([]string, len(set))
		for i, col := range set {
			names[i] = sch.Columns[col].QualifiedName()
		}
		parts = append(parts, "unique:"+strings.Join(names, ","))
	}
	if len(parts) == 0 {
		parts = append(parts, "cardinality")
	}
	return strings.Join(parts, " ")
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Func sql.AggFunc
	Arg  Expr // nil for COUNT(*)
	Name string
}

// Agg groups its input by the GroupCols and computes the aggregates. It
// is hash-based and blocking; if the group table exceeds its grant it
// spills partitions.
type Agg struct {
	base
	Input     Node
	GroupCols []int
	Aggs      []AggSpec
	Out       *types.Schema
}

// Schema implements Node.
func (a *Agg) Schema() *types.Schema { return a.Out }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Input} }

// Label implements Node.
func (a *Agg) Label() string { return "aggregate" }

// Describe implements Node.
func (a *Agg) Describe() string {
	var parts []string
	in := a.Input.Schema()
	for _, g := range a.GroupCols {
		parts = append(parts, in.Columns[g].QualifiedName())
	}
	d := ""
	if len(parts) > 0 {
		d = "group by " + strings.Join(parts, ", ")
	}
	for _, ag := range a.Aggs {
		if d != "" {
			d += " "
		}
		if ag.Arg == nil {
			d += fmt.Sprintf("%s(*)", ag.Func)
		} else {
			d += fmt.Sprintf("%s(%s)", ag.Func, ag.Arg)
		}
	}
	return d
}

// Project computes scalar expressions over its input.
type Project struct {
	base
	Input Node
	Exprs []Expr
	Out   *types.Schema
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema { return p.Out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Label implements Node.
func (p *Project) Label() string { return "project" }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// SortKey is one ORDER BY key over the input schema.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders its input; external merge sort if the input exceeds the
// memory grant.
type Sort struct {
	base
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Label implements Node.
func (s *Sort) Label() string { return "sort" }

// Describe implements Node.
func (s *Sort) Describe() string {
	in := s.Input.Schema()
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = in.Columns[k.Col].QualifiedName()
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return strings.Join(parts, ", ")
}

// Limit passes through the first N tuples.
type Limit struct {
	base
	Input Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Label implements Node.
func (l *Limit) Label() string { return "limit" }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("%d", l.N) }

// Format renders the plan tree with annotations, for EXPLAIN output and
// the tests' golden assertions.
func Format(n Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return b.String()
}

func format(b *strings.Builder, n Node, depth int) {
	e := n.Est()
	fmt.Fprintf(b, "%s%s [%s] rows=%.0f cost=%.1f",
		strings.Repeat("  ", depth), n.Label(), n.Describe(), e.Rows, e.Cost)
	if e.MemMax > 0 {
		fmt.Fprintf(b, " mem=%.0f..%.0f", e.MemMin, e.MemMax)
		if e.Grant > 0 {
			fmt.Fprintf(b, " grant=%.0f", e.Grant)
		}
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		format(b, c, depth+1)
	}
}

// Walk visits every node of the plan in pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}
