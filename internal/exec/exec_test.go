package exec

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// testEnv bundles a catalog and execution context over a fresh simulated
// disk.
type testEnv struct {
	cat  *catalog.Catalog
	ctx  *Ctx
	pool *storage.BufferPool
	// rowString, if set, gives row i of a makeTable table its s value;
	// otherwise every row holds "row".
	rowString func(table string, i int) string
}

func newEnv(poolPages int) *testEnv {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	d := storage.NewDisk(m)
	pool := storage.NewBufferPool(d, poolPages)
	return &testEnv{
		cat:  catalog.New(pool),
		ctx:  &Ctx{Pool: pool, Meter: m, Params: plan.Params{}},
		pool: pool,
	}
}

// makeTable creates table name(k INTEGER key, v INTEGER, s VARCHAR) with
// n rows: k = i, v = i % mod, s = short string.
func (e *testEnv) makeTable(t testing.TB, name string, n int, mod int64) *catalog.Table {
	t.Helper()
	tbl, err := e.cat.CreateTable(name, types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt, Key: true},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := "row"
		if e.rowString != nil {
			s = e.rowString(name, i)
		}
		err := tbl.Insert(types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i) % mod),
			types.NewString(s),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func scanNode(tbl *catalog.Table, filters ...plan.Pred) *plan.Scan {
	return &plan.Scan{Table: tbl, Binding: tbl.Name, Filters: filters, Out: tbl.Schema}
}

func mustPred(t *testing.T, schema *types.Schema, cond string) plan.Pred {
	t.Helper()
	stmt, err := sql.Parse("select k from x where " + cond)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BindPred(stmt.Where[0], schema)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func collectAll(t *testing.T, op Operator) []types.Tuple {
	t.Helper()
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSeqScanFilters(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 100, 10)
	n := scanNode(tbl, mustPred(t, tbl.Schema, "v = 3"))
	op, err := Build(n, e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := collectAll(t, op)
	if len(out) != 10 {
		t.Errorf("filtered scan returned %d rows, want 10", len(out))
	}
	for _, tup := range out {
		if tup[1].Int() != 3 {
			t.Errorf("row %v fails filter", tup)
		}
	}
}

func TestSeqScanChargesCPU(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 500, 10)
	before := e.ctx.Meter.Snapshot()
	op, _ := Build(scanNode(tbl), e.ctx)
	collectAll(t, op)
	d := e.ctx.Meter.Snapshot().Sub(before)
	if d.TupleCPU != 500 {
		t.Errorf("scan charged %d tuple CPU, want 500", d.TupleCPU)
	}
}

// nestedLoopJoin is the reference implementation for join tests.
func nestedLoopJoin(l, r []types.Tuple, lk, rk []int) []types.Tuple {
	var out []types.Tuple
	for _, a := range l {
		for _, b := range r {
			match := true
			for i := range lk {
				if a[lk[i]].IsNull() || b[rk[i]].IsNull() || !a[lk[i]].Equal(b[rk[i]]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, a.Concat(b))
			}
		}
	}
	return out
}

func sortTuples(ts []types.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func tuplesetEqual(t *testing.T, got, want []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	sortTuples(got)
	sortTuples(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func hashJoinNode(e *testEnv, t testing.TB, left, right *catalog.Table, grant float64) *plan.HashJoin {
	t.Helper()
	j := &plan.HashJoin{
		Build:     scanNode(left),
		Probe:     scanNode(right),
		BuildKeys: []int{1}, // v column
		ProbeKeys: []int{1},
	}
	j.Est().Grant = grant
	return j
}

func TestHashJoinInMemoryMatchesNestedLoop(t *testing.T) {
	e := newEnv(128)
	l := e.makeTable(t, "l", 80, 7)
	r := e.makeTable(t, "r", 60, 7)
	j := hashJoinNode(e, t, l, r, 0)
	op, _ := Build(j, e.ctx)
	got := collectAll(t, op)

	lt := collectAll(t, mustBuild(t, e, scanNode(l)))
	rt := collectAll(t, mustBuild(t, e, scanNode(r)))
	want := nestedLoopJoin(lt, rt, []int{1}, []int{1})
	tuplesetEqual(t, got, want)
	if len(got) == 0 {
		t.Fatal("join produced nothing")
	}
}

func mustBuild(t testing.TB, e *testEnv, n plan.Node) Operator {
	t.Helper()
	op, err := Build(n, e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestHashJoinSpilledMatchesInMemory(t *testing.T) {
	e := newEnv(512)
	l := e.makeTable(t, "l", 2000, 50)
	r := e.makeTable(t, "r", 1000, 50)

	mem := hashJoinNode(e, t, l, r, 0)
	memOp := NewHashJoin(mem, mustBuild(t, e, scanNode(l)), mustBuild(t, e, scanNode(r)), e.ctx)
	want := collectAll(t, memOp)
	if memOp.Spilled() {
		t.Fatal("unlimited-grant join spilled")
	}

	spill := hashJoinNode(e, t, l, r, 4096) // far below build size
	spillOp := NewHashJoin(spill, mustBuild(t, e, scanNode(l)), mustBuild(t, e, scanNode(r)), e.ctx)
	got := collectAll(t, spillOp)
	if !spillOp.Spilled() {
		t.Fatal("tiny-grant join did not spill")
	}
	tuplesetEqual(t, got, want)
}

// A spilled join reads its partitions back through one scanner a side,
// so the allocations of that phase do not grow with the partition count:
// the same 1:1 join at a grant that makes 8 partitions and at one that
// makes 128 may differ by one allocation in four extra partitions, where
// a scanner a partition cost two or more each. Each run drains a join
// that has partitioned both sides already; both grants overflow on the
// first build tuple, so the hash table grows from empty under each.
func TestSpilledJoinReadBackAllocsDoNotGrowWithPartitions(t *testing.T) {
	e := newEnv(1024)
	const n, runs = 4000, 5
	l := e.makeTable(t, "l", n, n)
	r := e.makeTable(t, "r", n, n)
	readBack := func(grant float64) (parts int, allocs float64) {
		joins := make([]*HashJoin, runs+1) // AllocsPerRun warms up with one more
		for i := range joins {
			j := NewHashJoin(hashJoinNode(e, t, l, r, grant), mustBuild(t, e, scanNode(l)), mustBuild(t, e, scanNode(r)), e.ctx)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if err := j.openProbe(); err != nil {
				t.Fatal(err)
			}
			joins[i] = j
		}
		allocs = testing.AllocsPerRun(runs, func() {
			j := joins[0]
			joins = joins[1:]
			if got, err := Drain(j); err != nil || got != n {
				t.Fatalf("grant %.0f: the join returned %d rows, want %d (%v)", grant, got, n, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			parts = len(j.buildParts)
		})
		return parts, allocs
	}
	tuple := float64(types.EncodedSize(types.Tuple{types.NewInt(0), types.NewInt(0), types.NewString("row")})) * plan.BuildFudge
	few, fewAllocs := readBack(0.99 * tuple)
	many, manyAllocs := readBack(tuple / 40)
	if few != 8 || many < 64 {
		t.Fatalf("the grants made %d and %d partitions, want 8 and >= 64", few, many)
	}
	if bound := fewAllocs + float64(many-few)/4; manyAllocs > bound {
		t.Errorf("reading back %d partitions made %.0f allocations, %d made %.0f: more than %.0f, they grow with the partitions",
			many, manyAllocs, few, fewAllocs, bound)
	}
}

func TestHashJoinSpillCostsMoreIO(t *testing.T) {
	e := newEnv(4096)
	l := e.makeTable(t, "l", 3000, 100)
	r := e.makeTable(t, "r", 3000, 100)

	run := func(grant float64) storage.Snapshot {
		before := e.ctx.Meter.Snapshot()
		j := hashJoinNode(e, t, l, r, grant)
		op, _ := Build(j, e.ctx)
		collectAll(t, op)
		return e.ctx.Meter.Snapshot().Sub(before)
	}
	inMem := run(0)
	spilled := run(2048)
	if spilled.PageWrites <= inMem.PageWrites {
		t.Errorf("spilled join wrote %d pages, in-memory wrote %d", spilled.PageWrites, inMem.PageWrites)
	}
	if spilled.Cost() <= inMem.Cost() {
		t.Errorf("spilled cost %.1f <= in-memory cost %.1f", spilled.Cost(), inMem.Cost())
	}
}

func TestHashJoinPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		e := newEnv(256)
		nl, nr := rng.Intn(200)+1, rng.Intn(200)+1
		mod := int64(rng.Intn(20) + 1)
		l := e.makeTable(t, "l", nl, mod)
		r := e.makeTable(t, "r", nr, mod)
		grant := float64(0)
		if trial%2 == 1 {
			grant = 2048 // force spill on odd trials
		}
		j := hashJoinNode(e, t, l, r, grant)
		got := collectAll(t, mustBuild(t, e, j))
		lt := collectAll(t, mustBuild(t, e, scanNode(l)))
		rt := collectAll(t, mustBuild(t, e, scanNode(r)))
		want := nestedLoopJoin(lt, rt, []int{1}, []int{1})
		tuplesetEqual(t, got, want)
	}
}

func TestHashJoinNullKeysNeverJoin(t *testing.T) {
	e := newEnv(64)
	l, _ := e.cat.CreateTable("l", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}))
	r, _ := e.cat.CreateTable("r", types.NewSchema(types.Column{Name: "b", Kind: types.KindInt}))
	l.Insert(types.Tuple{types.Null()})
	l.Insert(types.Tuple{types.NewInt(1)})
	r.Insert(types.Tuple{types.Null()})
	r.Insert(types.Tuple{types.NewInt(1)})
	j := &plan.HashJoin{Build: scanNode(l), Probe: scanNode(r), BuildKeys: []int{0}, ProbeKeys: []int{0}}
	got := collectAll(t, mustBuild(t, e, j))
	if len(got) != 1 {
		t.Errorf("NULL keys joined: %v", got)
	}
}

func TestIndexJoin(t *testing.T) {
	e := newEnv(128)
	outer := e.makeTable(t, "o", 50, 5)
	inner := e.makeTable(t, "i", 200, 5)
	if err := e.cat.CreateIndex("i", "v"); err != nil {
		t.Fatal(err)
	}
	j := &plan.IndexJoin{
		Outer:    scanNode(outer),
		Table:    inner,
		Binding:  "i",
		OuterKey: 1,
		InnerCol: 1,
		InnerOut: inner.Schema,
	}
	got := collectAll(t, mustBuild(t, e, j))
	ot := collectAll(t, mustBuild(t, e, scanNode(outer)))
	it := collectAll(t, mustBuild(t, e, scanNode(inner)))
	want := nestedLoopJoin(ot, it, []int{1}, []int{1})
	tuplesetEqual(t, got, want)
}

func TestIndexJoinInnerFilters(t *testing.T) {
	e := newEnv(128)
	outer := e.makeTable(t, "o", 20, 4)
	inner := e.makeTable(t, "i", 100, 4)
	e.cat.CreateIndex("i", "v")
	j := &plan.IndexJoin{
		Outer:        scanNode(outer),
		Table:        inner,
		Binding:      "i",
		OuterKey:     1,
		InnerCol:     1,
		InnerFilters: []plan.Pred{mustPred(t, inner.Schema, "k < 50")},
		InnerOut:     inner.Schema,
	}
	got := collectAll(t, mustBuild(t, e, j))
	for _, tup := range got {
		if tup[3].Int() >= 50 {
			t.Fatalf("inner filter leaked: %v", tup)
		}
	}
	if len(got) == 0 {
		t.Fatal("no output")
	}
}

func TestIndexJoinMissingIndex(t *testing.T) {
	e := newEnv(64)
	outer := e.makeTable(t, "o", 5, 2)
	inner := e.makeTable(t, "i", 5, 2)
	j := &plan.IndexJoin{Outer: scanNode(outer), Table: inner, OuterKey: 1, InnerCol: 1, InnerOut: inner.Schema}
	if _, err := Build(j, e.ctx); err == nil {
		t.Error("Build without index succeeded")
	}
}
