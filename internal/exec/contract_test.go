package exec

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// deepCopy copies a tuple down to its string bytes: Tuple.Clone shares
// them, and would change with the original if a block were rewritten.
func deepCopy(t types.Tuple) types.Tuple {
	c := t.Clone()
	for i, v := range c {
		if v.Kind() == types.KindString {
			c[i] = types.NewString(strings.Clone(v.Str()))
		}
	}
	return c
}

// retain drains op keeping every tuple Next returned and, beside each, a
// deep copy taken at return time; after the last Next and Close, and
// after whatever after does (more scanning over the same pool), the
// kept tuples must still read as their copies. This is the Operator
// contract — a returned tuple is immutable and the caller's to keep —
// that lets hash tables, sort buffers and pending outputs hold input
// tuples without cloning them.
func retain(t *testing.T, label string, op Operator, after ...func()) {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var kept, copies []types.Tuple
	for {
		tup, err := op.Next()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tup == nil {
			break
		}
		kept = append(kept, tup)
		copies = append(copies, deepCopy(tup))
	}
	if err := op.Close(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(kept) == 0 {
		t.Fatalf("%s: no output", label)
	}
	for _, fn := range after {
		fn()
	}
	for i := range kept {
		if !kept[i].Equal(copies[i]) {
			t.Fatalf("%s: tuple %d of %d reads %v after the operator moved on, was %v",
				label, i, len(kept), kept[i], copies[i])
		}
		// No later tuple may have been built in an earlier one's spare
		// capacity either.
		if i > 0 && len(kept[i]) > 0 && len(kept[i-1]) > 0 && &kept[i][0] == &kept[i-1][0] {
			t.Fatalf("%s: tuples %d and %d share storage", label, i-1, i)
		}
	}
}

func TestOperatorsReturnTuplesTheCallerMayKeep(t *testing.T) {
	e := newEnv(256)
	// Every row its own string, of its own length: a string block
	// written twice, or a view of a page frame, would show.
	e.rowString = func(table string, i int) string {
		return fmt.Sprintf("%s-%d-%s", table, i, strings.Repeat("x", i%23))
	}
	big := e.makeTable(t, "big", 3000, 37)
	small := e.makeTable(t, "small", 400, 37)
	if err := e.cat.CreateIndex("small", "v"); err != nil {
		t.Fatal(err)
	}
	// After an operator is closed: empty the pool, scan other pages
	// through it, and overwrite every page the operator read. The pool
	// lends the disk's pages, so a string that was a view of one — what a
	// filter tests, compiled or through Pred.Test — would read as 0xEE
	// bytes; an emitted string is a copy in the operator's arena.
	other := e.makeTable(t, "other", 3000, 37)
	saved := map[storage.PageID][]byte{}
	churn := func() {
		e.pool.EvictAll()
		if n := len(collectAll(t, mustBuild(t, e, scanNode(other)))); n != 3000 {
			t.Fatalf("churn scan read %d rows", n)
		}
		for _, tbl := range []*catalog.Table{big, small} {
			for s := tbl.Heap.Scan(); s.Next(); {
				saved[s.RID().Page] = nil
			}
		}
		for id := range saved {
			buf, err := e.pool.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			saved[id] = bytes.Clone(buf)
			for i := range buf {
				buf[i] = 0xEE
			}
			e.pool.Unpin(id)
		}
	}
	restore := func() {
		for id, page := range saved {
			buf, err := e.pool.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, page)
			e.pool.Unpin(id)
		}
	}
	pruned := func() *plan.Scan {
		return &plan.Scan{Table: big, Binding: "big", Cols: []int{0, 2}, Out: big.Schema.Project([]int{0, 2}),
			Filters: []plan.Pred{mustPred(t, big.Schema, "v < 30")}}
	}
	join := func(grant float64) *plan.HashJoin { return hashJoinNode(e, t, small, big, grant) }
	agg := func(grant float64) *plan.Agg { return aggNode(t, e, "big", grant) }
	sorted := func(grant float64) *plan.Sort {
		s := &plan.Sort{Input: scanNode(big), Keys: []plan.SortKey{{Col: 1}, {Col: 0, Desc: true}}}
		s.Est().Grant = grant
		return s
	}
	for label, node := range map[string]plan.Node{
		"scan":            scanNode(big),
		"scan, filtered":  scanNode(big, mustPred(t, big.Schema, "v = 3")),
		"scan, projected": pruned(),
		"scan, strings": &plan.Scan{Table: big, Binding: "big", Cols: []int{2}, Out: big.Schema.Project([]int{2}),
			Filters: []plan.Pred{mustPred(t, big.Schema, "s like 'big-1%'")}},
		"filter":           &plan.Filter{Input: scanNode(big), Preds: []plan.Pred{mustPred(t, big.Schema, "v > 20")}},
		"collector":        &plan.Collector{Input: scanNode(big), ID: 1, Spec: plan.CollectorSpec{HistCols: []int{1}}},
		"hash join":        join(0),
		"hash join, spill": join(8 << 10),
		"index join": &plan.IndexJoin{Outer: scanNode(big, mustPred(t, big.Schema, "k < 200")), Table: small, Binding: "small",
			OuterKey: 1, InnerCol: 1, InnerOut: small.Schema},
		"index join, projected": &plan.IndexJoin{Outer: pruned(), Table: small, Binding: "small",
			OuterKey: 0, InnerCol: 1, InnerCols: []int{1, 2}, InnerOut: small.Schema.Project([]int{1, 2}),
			InnerFilters: []plan.Pred{mustPred(t, small.Schema, "k < 300")}},
		"aggregate":        agg(0),
		"aggregate, spill": agg(512),
		"sort":             sorted(0),
		"sort, spill":      sorted(4096),
		"project": &plan.Project{Input: scanNode(big),
			Exprs: []plan.Expr{&plan.ColExpr{Idx: 2, Col: big.Schema.Columns[2]}, &plan.ColExpr{Idx: 0, Col: big.Schema.Columns[0]}},
			Out:   big.Schema.Project([]int{2, 0})},
		"limit": &plan.Limit{Input: scanNode(big), N: 500},
	} {
		op := mustBuild(t, e, node)
		retain(t, label, op, churn)
		restore()
		if sp, ok := op.(interface{ Spilled() bool }); ok && sp.Spilled() != strings.HasSuffix(label, ", spill") {
			t.Errorf("%s: spilled = %v", label, sp.Spilled())
		}
	}

	// The partial/final aggregate pair of a parallel region: the final
	// stage keys on the leading columns of the partial stage's states.
	a := agg(0)
	partial := NewPartialAgg(a, mustBuild(t, e, a.Input), e.ctx)
	retain(t, "aggregate, partial", NewPartialAgg(a, mustBuild(t, e, a.Input), e.ctx))
	retain(t, "aggregate, final", NewFinalAgg(a, partial, e.ctx))
}

// opaque passes its input's tuples on but is no operator Lend looks
// into: a lender over it reads an input that keeps the default rule.
type opaque struct{ Operator }

// TestLendingContract runs every operator that lends its input over
// multi-page scans, under every stack of operators Lend walks through,
// with and without EXPLAIN ANALYZE's wrappers. Each result must equal the
// same operator's over an input Lend cannot see into (and a spilling
// one's, the in-memory result); the lent scan must really recycle — a few
// value blocks for the whole scan, where the unlent one allocates one a
// page; and a keeper beside a lender, a join's build side, must be lent
// nothing.
func TestLendingContract(t *testing.T) {
	e := newEnv(256)
	e.rowString = func(table string, i int) string {
		return fmt.Sprintf("%s-%d-%s", table, i, strings.Repeat("x", i%23))
	}
	big := e.makeTable(t, "big", 6000, 1000)
	dim := e.makeTable(t, "dim", 500, 500)
	if err := e.cat.CreateIndex("dim", "k"); err != nil {
		t.Fatal(err)
	}
	pages := big.Heap.NumPages()
	if pages < 20 {
		t.Fatalf("big has %d pages: too few to tell recycling from not", pages)
	}

	join := func(grant float64) *plan.HashJoin {
		j := &plan.HashJoin{Build: scanNode(dim), Probe: scanNode(big), BuildKeys: []int{0}, ProbeKeys: []int{1}}
		j.Est().Grant = grant
		return j
	}
	lenders := map[string]struct {
		op    func(grant float64, in Operator, ctx *Ctx) Operator
		grant float64 // > 0: the operator spills, and must match its in-memory self
	}{
		"aggregate": {op: func(g float64, in Operator, ctx *Ctx) Operator { return NewAgg(aggNode(t, e, "big", g), in, ctx) }},
		"aggregate, partial": {op: func(g float64, in Operator, ctx *Ctx) Operator {
			return NewPartialAgg(aggNode(t, e, "big", g), in, ctx)
		}},
		"aggregate, spill-merge": {op: func(g float64, in Operator, ctx *Ctx) Operator { return NewAgg(aggNode(t, e, "big", g), in, ctx) }, grant: 512},
		"hash join probe": {op: func(g float64, in Operator, ctx *Ctx) Operator {
			return NewHashJoin(join(g), mustBuild(t, e, scanNode(dim)), in, ctx)
		}},
		"hash join probe, spilled": {op: func(g float64, in Operator, ctx *Ctx) Operator {
			return NewHashJoin(join(g), mustBuild(t, e, scanNode(dim)), in, ctx)
		}, grant: 4096},
		"project": {op: func(_ float64, in Operator, ctx *Ctx) Operator {
			return NewProject(&plan.Project{Input: scanNode(big),
				Exprs: []plan.Expr{&plan.ColExpr{Idx: 2, Col: big.Schema.Columns[2]}, &plan.ColExpr{Idx: 0, Col: big.Schema.Columns[0]}},
				Out:   big.Schema.Project([]int{2, 0})}, in, ctx)
		}},
		"index join outer": {op: func(_ float64, in Operator, ctx *Ctx) Operator {
			j, err := NewIndexJoin(&plan.IndexJoin{Outer: scanNode(big), Table: dim, Binding: "dim",
				OuterKey: 1, InnerCol: 0, InnerOut: dim.Schema}, in, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
	}
	filter := func(n plan.Node) plan.Node {
		return &plan.Filter{Input: n, Preds: []plan.Pred{mustPred(t, big.Schema, "v < 30")}}
	}
	collector := func(n plan.Node) plan.Node {
		return &plan.Collector{Input: n, ID: 1, Spec: plan.CollectorSpec{HistCols: []int{1}}}
	}
	limit := func(n plan.Node) plan.Node { return &plan.Limit{Input: n, N: 5000} }
	all := func(n plan.Node) plan.Node { return limit(collector(filter(n))) }
	// EXPLAIN ANALYZE wraps every node Build makes in an observedOp.
	stacks := []struct {
		name    string
		wrap    func(plan.Node) plan.Node
		analyze bool
	}{
		{"bare", func(n plan.Node) plan.Node { return n }, false},
		{"filter", filter, false},
		{"collector", collector, false},
		{"limit", limit, false},
		{"observed", func(n plan.Node) plan.Node { return n }, true},
		{"observed filter, collector, limit", all, true},
	}
	for _, s := range stacks {
		ctx := *e.ctx
		if s.analyze {
			ctx.Prog = obs.NewProgress("q", 0, "", true)
		}
		for lname, l := range lenders {
			label := lname + " over " + s.name
			run := func(grant float64, lent bool) []types.Tuple {
				in, err := Build(s.wrap(scanNode(big)), &ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !lent {
					in = opaque{in}
				}
				op := l.op(grant, in, &ctx)
				rows := collectAll(t, op)
				if sp, ok := op.(interface{ Spilled() bool }); ok && sp.Spilled() != (grant > 0) {
					t.Fatalf("%s: spilled = %v at grant %.0f", label, sp.Spilled(), grant)
				}
				return rows
			}
			got, want := run(l.grant, true), run(l.grant, false)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s: %d rows lent, %d not", label, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s: row %d reads %v lent, %v not", label, i, got[i], want[i])
				}
			}
			if l.grant > 0 {
				tuplesetEqual(t, got, run(0, false))
			}
			// With the collector off: it empties the disk's pool of freed
			// pages when it likes, and a spilling run's page allocations
			// would move with it.
			gc := debug.SetGCPercent(-1)
			lentAllocs := testing.AllocsPerRun(1, func() { run(l.grant, true) })
			keptAllocs := testing.AllocsPerRun(1, func() { run(l.grant, false) })
			debug.SetGCPercent(gc)
			if lentAllocs > keptAllocs-float64(pages)/3 {
				t.Errorf("%s: %.0f allocations lent, %.0f not, over a scan of %d pages: the scan did not recycle",
					label, lentAllocs, keptAllocs, pages)
			}
		}
	}

	// The build side of a join whose probe is lent keeps its tuples as the
	// default rule says: after the probe has recycled its block across
	// every page of big, they still read as a fresh scan of dim does.
	j := NewHashJoin(join(0), mustBuild(t, e, scanNode(dim)), mustBuild(t, e, scanNode(big)), e.ctx)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if n, err := Drain(j); err != nil || n != 3000 {
		t.Fatalf("join drained %d rows, %v", n, err)
	}
	want := collectAll(t, mustBuild(t, e, scanNode(dim)))
	if len(j.rows) != len(want) {
		t.Fatalf("the join holds %d build tuples, dim has %d", len(j.rows), len(want))
	}
	for i, b := range j.rows {
		if !b.Equal(want[i]) {
			t.Fatalf("build tuple %d reads %v after %d probe pages, was %v", i, b, pages, want[i])
		}
	}
	j.Close()
}

// TestAggLooksGroupsUpWithoutAllocating: absorbing a tuple whose group
// exists builds no key — the stored key is compared against the tuple's
// group columns in place — in complete and in final mode.
func TestAggLooksGroupsUpWithoutAllocating(t *testing.T) {
	e := newEnv(64)
	e.makeTable(t, "r", 10, 10)
	for _, mode := range []aggMode{aggComplete, aggFinal} {
		node := aggNode(t, e, "r", 0)
		node.Aggs = node.Aggs[2:3] // count(*): no argument to evaluate
		a := &Agg{node: node, ctx: e.ctx, mode: mode}
		a.keyCols = node.GroupCols
		in := types.Tuple{types.NewInt(1), types.NewInt(7), types.NewString("row")}
		if mode == aggFinal {
			a.keyCols = leadingCols(1)
			in = types.Tuple{types.NewInt(7), types.Null(), types.NewInt(1), types.Null(), types.Null()}
		}
		if err := a.absorb(in); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { a.absorb(in) }); allocs != 0 {
			t.Errorf("mode %d: absorbing into an existing group allocated %.0f times", mode, allocs)
		}
		if n := a.index.len(); n != 1 {
			t.Errorf("mode %d: %d groups, want the one group", mode, n)
		}
	}
}

// TestDMLMatchTestsFiltersBeforeDecoding: the scan behind UPDATE and
// DELETE examines (ticks, charges) every visible tuple, as it always
// did, but decodes in full only the rows its filters matched — a
// statement that touches one row of a table does not materialise the
// table.
func TestDMLMatchTestsFiltersBeforeDecoding(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 2000, 10)
	filters := []plan.Pred{mustPred(t, tbl.Schema, "k = 7")}
	before := e.ctx.Meter.Snapshot()
	got, err := matchVisible(e.ctx, tbl, filters, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].tup.Equal(types.Tuple{types.NewInt(7), types.NewInt(7), types.NewString("row")}) {
		t.Fatalf("matched %v, want the whole tuple of row 7", got)
	}
	if d := e.ctx.Meter.Snapshot().Sub(before); d.TupleCPU != 2000 {
		t.Errorf("charged %d tuples, want all 2000 examined", d.TupleCPU)
	}
	// Every row carries a string: decoding them all would allocate at
	// least once a row.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := matchVisible(e.ctx, tbl, filters, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("matching 1 row of 2000 allocated %.0f times", allocs)
	}
}
