package scia

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// levelTracer evaluates the paper's inaccuracy-potential rules (§2.5)
// over an annotated plan:
//
//   - a base-table histogram is low for serial-class histograms
//     (MaxDiff, end-biased), medium for equi-width/equi-depth, high when
//     absent;
//   - significant update activity since the last ANALYZE bumps every
//     level one grade;
//   - a simple one-column selection keeps its input's level; a selection
//     over two or more columns of the relation bumps it (possible
//     correlations); predicates with host variables are graded high
//     (their selectivity is unknowable at plan time, like the paper's
//     user-defined functions), except that an equality on a declared
//     key keeps at most one row whatever its value, and is low;
//   - an equi-join on key attributes keeps the max of its inputs; on
//     non-key attributes it bumps; non-equi joins are high;
//   - distinct-value counts are low only on raw base-table columns and
//     high at every intermediate point.
type levelTracer struct {
	rels map[string]*catalog.Table // binding -> table
}

func newLevelTracer(res *optimizer.Result) *levelTracer {
	lt := &levelTracer{rels: make(map[string]*catalog.Table, len(res.Query.Rels))}
	for i := range res.Query.Rels {
		rel := &res.Query.Rels[i]
		lt.rels[rel.Binding] = rel.Table
	}
	return lt
}

// baseColLevel grades the catalog statistics for one column.
func (lt *levelTracer) baseColLevel(binding, name string) Level {
	t, ok := lt.rels[strings.ToLower(binding)]
	if !ok {
		return High
	}
	col, err := t.Schema.Resolve("", name)
	if err != nil {
		return High
	}
	cs := t.ColStat(col)
	var l Level
	switch {
	case cs.HasHistogram() && cs.Hist.Family.Class() == histogram.ClassSerial:
		l = Low
	case cs.HasHistogram():
		l = Medium
	default:
		l = High
	}
	if t.StaleStats() {
		l = l.bump()
	}
	return l
}

// isKeyColumn reports whether the named base column is a declared key.
func (lt *levelTracer) isKeyColumn(binding, name string) bool {
	t, ok := lt.rels[strings.ToLower(binding)]
	if !ok {
		return false
	}
	col, err := t.Schema.Resolve("", name)
	if err != nil {
		return false
	}
	return t.Schema.Columns[col].Key
}

// pointLevel grades the optimizer's cardinality estimate for the output
// of a plan node.
func (lt *levelTracer) pointLevel(n plan.Node) Level {
	switch x := n.(type) {
	case *plan.Scan:
		l := Low
		for _, p := range x.FilterSQL {
			l = maxLevel(l, lt.filterLevel(x.Binding, p))
		}
		return l
	case *plan.Collector:
		return lt.pointLevel(x.Input)
	case *plan.Filter:
		// Residual filters carry non-equi or cross-relation
		// conditions: high, per the non-equi-join rule.
		return High
	case *plan.HashJoin:
		l := maxLevel(lt.pointLevel(x.Build), lt.pointLevel(x.Probe))
		if !lt.joinOnKeys(x) {
			l = l.bump()
		}
		return l
	case *plan.IndexJoin:
		l := lt.pointLevel(x.Outer)
		// Grade the inner side like a scan with its filters.
		inner := Low
		for _, p := range x.InnerSQL {
			inner = maxLevel(inner, lt.filterLevel(x.Binding, p))
		}
		l = maxLevel(l, inner)
		oc := x.Outer.Schema().Columns[x.OuterKey]
		ic := x.InnerKey()
		if !lt.isKeyColumn(oc.Table, oc.Name) && !lt.isKeyColumn(ic.Table, ic.Name) {
			l = l.bump()
		}
		return l
	default:
		return High
	}
}

// joinOnKeys reports whether at least one side of every hash-join key
// pair is a declared key — the case the paper grades as accurately
// estimable.
func (lt *levelTracer) joinOnKeys(j *plan.HashJoin) bool {
	bs, ps := j.Build.Schema(), j.Probe.Schema()
	for i := range j.BuildKeys {
		bc := bs.Columns[j.BuildKeys[i]]
		pc := ps.Columns[j.ProbeKeys[i]]
		if !lt.isKeyColumn(bc.Table, bc.Name) && !lt.isKeyColumn(pc.Table, pc.Name) {
			return false
		}
	}
	return len(j.BuildKeys) > 0
}

// filterLevel grades a selection predicate applied to one relation.
func (lt *levelTracer) filterLevel(binding string, p sql.Predicate) Level {
	if t, ok := lt.rels[strings.ToLower(binding)]; ok && optimizer.KeyEquality(t, p) {
		return Low // at most one row, whatever the value
	}
	if sql.HasHostVar(p) {
		return High
	}
	cols := predColumns(p)
	l := Low
	for _, name := range cols {
		l = maxLevel(l, lt.baseColLevel(binding, name))
	}
	if len(cols) >= 2 {
		// Multiple attributes of the relation: possible correlations
		// the per-column histograms cannot capture.
		l = l.bump()
	}
	return l
}

// predColumns lists the distinct column names a predicate references.
func predColumns(p sql.Predicate) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *sql.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sql.AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	for _, e := range sql.Operands(p) {
		walk(e)
	}
	return out
}
