package exchange

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// testEnv is a catalog on its own disk, pool and meter.
type testEnv struct {
	cat  *catalog.Catalog
	pool *storage.BufferPool
	m    *storage.CostMeter
}

func newEnv() *testEnv {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 256)
	return &testEnv{cat: catalog.New(pool), pool: pool, m: m}
}

func (e *testEnv) ctx(parent context.Context) *exec.Ctx {
	return &exec.Ctx{Context: parent, Pool: e.pool, Meter: e.m, Params: plan.Params{}, CheckEvery: 64}
}

// table creates name(k INTEGER key, v INTEGER, s VARCHAR) with n rows:
// k = i, v = i % 7.
func (e *testEnv) table(tb testing.TB, name string, n int) *catalog.Table {
	tb.Helper()
	tbl, err := e.cat.CreateTable(name, types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt, Key: true},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewString("row")}); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

func scanOf(t *catalog.Table) *plan.Scan {
	return &plan.Scan{Table: t, Binding: t.Name, Out: t.Schema}
}

// joinOf joins build and probe on k: one output row per key in both.
func joinOf(build, probe *catalog.Table) *plan.HashJoin {
	return &plan.HashJoin{Build: scanOf(build), Probe: scanOf(probe), BuildKeys: []int{0}, ProbeKeys: []int{0}}
}

// aggOf groups by v: count(*) and sum(k).
func aggOf(t *catalog.Table) *plan.Agg {
	k := &plan.ColExpr{Idx: 0, Col: t.Schema.Columns[0]}
	return &plan.Agg{
		Input:     scanOf(t),
		GroupCols: []int{1},
		Aggs:      []plan.AggSpec{{Func: sql.AggCount, Name: "n"}, {Func: sql.AggSum, Arg: k, Name: "sum_k"}},
		Out: types.NewSchema(t.Schema.Columns[1],
			types.Column{Name: "n", Kind: types.KindInt}, types.Column{Name: "sum_k", Kind: types.KindInt}),
	}
}

// multiset runs a plan to the end and returns its rows, rendered and
// sorted.
func multiset(t *testing.T, e *testEnv, n plan.Node) []string {
	t.Helper()
	return rendered(t, mustBuild(t, n, e.ctx(context.Background())))
}

// leafStage is the stage over a parallelized leaf segment.
func leafStage(n plan.Node, ctx *exec.Ctx) *stage {
	return &stage{x: n.(*plan.Exchange), ctx: ctx}
}

// aggStage assembles what buildExchange does for a parallelized
// aggregation over left (nil: built from the plan) and returns the final
// merge with the stage under it.
func aggStage(n plan.Node, left exec.Operator, ctx *exec.Ctx) (exec.Operator, *stage) {
	x := n.(*plan.Exchange)
	s := &stage{x: x, ctx: ctx, left: left, agg: x.Input.(*plan.Agg)}
	return finalMerge(s), s
}

// feeder is the stage behind s's early router, if there is one.
func feeder(s *stage) *stage {
	if len(s.early.from) == 0 {
		return nil
	}
	f, _ := s.early.from[0].op.(*stage)
	return f
}

// Streams that end before, on and after a chunk boundary come out of a
// gather, a hash-partitioned join and a partial/final aggregation as
// the serial multiset, at every degree. Degree 1 (which Parallelize
// itself never emits) puts the whole stream through one queue, so the
// lengths fall on that queue's chunk boundaries exactly.
func TestChunkBoundaryStreamsMatchSerial(t *testing.T) {
	for _, n := range []int{0, 1, chunkCap - 1, chunkCap, chunkCap + 1, 3*chunkCap + 7} {
		e := newEnv()
		r, s := e.table(t, "r", n), e.table(t, "s", n)
		for name, mk := range map[string]func() plan.Node{
			"gather": func() plan.Node { return scanOf(r) },
			"join":   func() plan.Node { return joinOf(r, s) },
			"agg":    func() plan.Node { return aggOf(r) },
		} {
			want := multiset(t, e, mk())
			if name != "agg" && len(want) != n {
				t.Fatalf("%s n=%d: serial plan yields %d rows", name, n, len(want))
			}
			for _, deg := range []int{1, 2, 4} {
				if got := multiset(t, e, topsPass(mk(), deg)); !slices.Equal(got, want) {
					t.Errorf("%s n=%d degree %d: %d rows differ from the serial %d", name, n, deg, len(got), len(want))
				}
			}
		}
	}
}

// A region that runs to its end has forwarded, by the time its consumer
// sees the end of the stream, every charge its workers made: the query
// meter is the sum of the tributaries, as it was when every charge was
// forwarded by itself.
func TestRegionsForwardEveryCharge(t *testing.T) {
	e := newEnv()
	r := e.table(t, "r", 5*chunkCap+3)
	for _, deg := range []int{1, 2, 4} {
		before := e.m.Snapshot()
		g := leafStage(topsPass(scanOf(r), deg), e.ctx(context.Background()))
		if _, err := exec.Collect(g); err != nil {
			t.Fatal(err)
		}
		sameCharges(t, fmt.Sprintf("gather, degree %d", deg), e, before, g.reg)

		before = e.m.Snapshot()
		op, err := exec.Build(topsPass(joinOf(r, r), deg), e.ctx(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(op); err != nil {
			t.Fatal(err)
		}
		j := op.(*stage)
		sameCharges(t, fmt.Sprintf("join, degree %d", deg), e, before, j.reg, feeder(j).reg)

		before = e.m.Snapshot()
		op, a := aggStage(topsPass(aggOf(r), deg), nil, e.ctx(context.Background()))
		if _, err := exec.Collect(op); err != nil {
			t.Fatal(err)
		}
		// Serial on top of the workers: the gather that feeds the router,
		// and the final merge, which absorbs one state per (worker,
		// group) and emits one row per group.
		sum := forwarded(t, fmt.Sprintf("agg, degree %d", deg), a.reg, feeder(a).reg)
		groups := int64(min(7, r.Heap.NumTuples()))
		if d := e.m.Snapshot().Sub(before); d.TupleCPU != sum.TupleCPU+int64(deg)*groups+groups {
			t.Errorf("agg, degree %d: query meter moved by %d tuples, workers charged %d and the final merge %d",
				deg, d.TupleCPU, sum.TupleCPU, int64(deg)*groups+groups)
		}
	}
}

// failAt is a scan filter that passes every row and fails the query at
// row k.
type failAt struct{ k int64 }

var errRow = errors.New("exchange test: bad row")

func (f failAt) String() string { return fmt.Sprintf("k <> %d or fail", f.k) }
func (f failAt) Test(t types.Tuple, _ plan.Params) (bool, error) {
	if t[0].Int() == f.k {
		return false, errRow
	}
	return true, nil
}

// A worker that fails in the middle of a chunk — tuples charged since its
// last send, nothing more to send — has them forwarded when its region
// closes, and so do the workers its failure cancels.
func TestWorkerFailingMidChunkStillForwards(t *testing.T) {
	e := newEnv()
	r := e.table(t, "r", 8*chunkCap)
	bad := scanOf(r)
	bad.Filters = []plan.Pred{failAt{k: chunkCap / 2}}
	fails := func(op exec.Operator) {
		t.Helper()
		if _, err := exec.Collect(op); !errors.Is(err, errRow) {
			t.Fatalf("Collect = %v, want the bad row's error", err)
		}
	}

	before := e.m.Snapshot()
	g := leafStage(topsPass(bad, 2), e.ctx(context.Background()))
	fails(g)
	sameCharges(t, "gather over a failing scan", e, before, g.reg)

	before = e.m.Snapshot()
	join := joinOf(r, r)
	join.Probe = bad
	op, err := exec.Build(topsPass(join, 2), e.ctx(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	fails(op)
	j := op.(*stage)
	sameCharges(t, "join over a failing probe", e, before, j.reg, feeder(j).reg)

	before = e.m.Snapshot()
	agg := aggOf(r)
	agg.Input = bad
	op, a := aggStage(topsPass(agg, 2), nil, e.ctx(context.Background()))
	fails(op)
	sum := forwarded(t, "agg over a failing scan", a.reg, feeder(a).reg)
	if d := e.m.Snapshot().Sub(before); sum.TupleCPU == 0 || d.TupleCPU < sum.TupleCPU {
		t.Errorf("agg over a failing scan: query meter moved by %d tuples, the workers charged %d", d.TupleCPU, sum.TupleCPU)
	}
}

// A worker's spill files are its own: a degree-2 join that spills
// charges its partitions' re-reads and the writes back of their pages to
// the workers' tributaries, so the gather's per-worker totals hold that
// I/O, and the query meter moves by what the workers forwarded.
func TestSpillChargesReachTheWorkers(t *testing.T) {
	e := newEnv()
	build, probe := e.table(t, "b", 3000), e.table(t, "p", 3000)
	join := joinOf(build, probe)
	join.Est().Grant = 4096 // far below the build side at either worker
	e.pool.EvictAll()
	before := e.m.Snapshot()
	op, err := exec.Build(topsPass(join, 2), e.ctx(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); err != nil {
		t.Fatal(err)
	}
	j := op.(*stage)
	sameCharges(t, "spilling join, degree 2", e, before, j.reg, feeder(j).reg)
	var writes, reads int64
	for _, m := range j.reg.meters {
		s := m.Snapshot()
		writes, reads = writes+s.PageWrites, reads+s.PageReads
	}
	if writes == 0 || reads == 0 {
		t.Errorf("the join workers charged %d writes and %d reads: their spill I/O went elsewhere", writes, reads)
	}
	if d := e.m.Snapshot().Sub(before); d.PageWrites != writes {
		t.Errorf("the query meter took %d writes, the workers %d", d.PageWrites, writes)
	}
}

// Joins on a column with duplicates — every probe tuple meets a chain of
// build tuples — produce the nested-loop multiset in memory, spilled, and
// across 1, 2 and 4 workers.
func TestJoinOnDuplicateKeysMatchesNestedLoop(t *testing.T) {
	e := newEnv()
	build, probe := e.table(t, "b", 600), e.table(t, "p", 150)
	var want []string
	for i := 0; i < 600; i++ {
		for k := 0; k < 150; k++ {
			if i%7 == k%7 {
				want = append(want, fmt.Sprint(types.Tuple{
					types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewString("row"),
					types.NewInt(int64(k)), types.NewInt(int64(k % 7)), types.NewString("row")}))
			}
		}
	}
	sort.Strings(want)
	mk := func(grant float64) *plan.HashJoin {
		j := &plan.HashJoin{Build: scanOf(build), Probe: scanOf(probe), BuildKeys: []int{1}, ProbeKeys: []int{1}}
		j.Est().Grant = grant
		return j
	}
	for _, grant := range []float64{0, 4096} { // in memory; far below the build side
		if got := multiset(t, e, mk(grant)); !slices.Equal(got, want) {
			t.Errorf("serial, grant %.0f: %d rows differ from the nested loop's %d", grant, len(got), len(want))
		}
		for _, deg := range []int{1, 2, 4} {
			if got := multiset(t, e, topsPass(mk(grant), deg)); !slices.Equal(got, want) {
				t.Errorf("degree %d, grant %.0f: %d rows differ from the nested loop's %d", deg, grant, len(got), len(want))
			}
		}
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// anyFull reports whether one of the queues is at capacity.
func anyFull(qs ...chan *chunk) bool {
	for _, q := range qs {
		if len(q) == cap(q) {
			return true
		}
	}
	return false
}

// drainErr pulls op to the end of its stream — a chunk already queued
// may still be handed out after a cancel — and returns how it ended.
func drainErr(op exec.Operator) error {
	for {
		if tup, err := op.Next(); tup == nil {
			return err
		}
	}
}

// forwarded fails the test if a worker of the (closed, or waited-for)
// regions charged something its tributary has not flushed to the query
// meter, and returns what the workers charged in all.
func forwarded(t *testing.T, what string, regs ...*region) (sum storage.Snapshot) {
	t.Helper()
	for _, r := range regs {
		for w, m := range r.meters {
			if u := m.Unflushed(); u.PageReads != 0 || u.PageWrites != 0 || u.TupleCPU != 0 || u.StatCPU != 0 {
				t.Errorf("%s: worker %d kept %v from the query meter", what, w, u)
			}
			c := m.Snapshot()
			sum.PageReads += c.PageReads
			sum.TupleCPU += c.TupleCPU
			sum.StatCPU += c.StatCPU
		}
	}
	return sum
}

// sameCharges fails the test unless the query meter moved by exactly
// what the regions' workers charged: no serial operator charges tuples
// or reads pages in the plans it is used on.
func sameCharges(t *testing.T, what string, e *testEnv, before storage.Snapshot, regs ...*region) {
	t.Helper()
	sum, d := forwarded(t, what, regs...), e.m.Snapshot().Sub(before)
	if sum.TupleCPU == 0 {
		t.Errorf("%s: the workers charged nothing: the test saw no work", what)
	}
	if d.TupleCPU != sum.TupleCPU || d.StatCPU != sum.StatCPU || d.PageReads != sum.PageReads {
		t.Errorf("%s: query meter moved by %v, its workers charged %v", what, d, sum)
	}
}

// settles returns a condition that holds once the goroutine count is
// back to what it was when settles was called.
func settles() func() bool {
	base := runtime.NumGoroutine()
	return func() bool { return runtime.NumGoroutine() <= base }
}

// Cancelling a query whose consumer has stopped pulling — the queues
// backed up to the producers, which park on their sends — releases all
// of them: Close returns and no goroutine outlives it.
func TestCancelWithFullQueuesReleasesProducers(t *testing.T) {
	e := newEnv()
	big := e.table(t, "big", 16*chanCap*chunkCap)

	t.Run("gather", func(t *testing.T) {
		settled := settles()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := e.m.Snapshot()
		g := leafStage(topsPass(scanOf(big), 4), e.ctx(ctx))
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a full gather queue", func() bool { return anyFull(g.out.q) })
		cancel()
		if err := drainErr(g); !errors.Is(err, context.Canceled) {
			t.Errorf("Next after cancel = %v, want context.Canceled", err)
		}
		g.Close()
		waitFor(t, "the gather's goroutines to exit", settled)
		// Workers parked on a send, with a chunk in hand and more charged
		// behind it, still had it all forwarded when the region closed.
		sameCharges(t, "cancelled gather", e, before, g.reg)
	})

	t.Run("join", func(t *testing.T) {
		settled := settles()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := e.m.Snapshot()
		op, err := exec.Build(topsPass(joinOf(big, big), 4), e.ctx(ctx))
		if err != nil {
			t.Fatal(err)
		}
		j := op.(*stage)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		// Open returned: the dispatcher is at a checkpoint and reads the
		// query meter, which holds the whole build — two charges a build
		// tuple in the join workers, one in the scan workers below.
		build := feeder(j).reg
		sameCharges(t, "join after Open", e, before, j.reg, build)
		if got, want := e.m.Snapshot().Sub(before).TupleCPU, int64(3*16*chanCap*chunkCap); got != want {
			t.Errorf("query meter holds %d tuple charges after the build, want %d", got, want)
		}
		// ... and the probe is untouched: its scans exist, nothing runs them.
		for p, pr := range j.late.from {
			if c := pr.m.Snapshot(); c.PageReads != 0 || c.TupleCPU != 0 {
				t.Errorf("probe scan %d charged %v before the first Next", p, c)
			}
		}
		if tup, err := j.Next(); tup == nil || err != nil {
			t.Fatalf("first Next = %v, %v", tup, err)
		}
		// A full gather queue parks the join workers; a full probe
		// queue then parks every probe worker that routes to it.
		waitFor(t, "full gather and probe queues", func() bool { return anyFull(j.out.q) && anyFull(j.late.to...) })
		cancel()
		if err := drainErr(j); !errors.Is(err, context.Canceled) {
			t.Errorf("Next after cancel = %v, want context.Canceled", err)
		}
		j.Close()
		waitFor(t, "the join's goroutines to exit", settled)
		sameCharges(t, "cancelled join", e, before, j.reg, build)
	})

	t.Run("agg", func(t *testing.T) {
		settled := settles()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := e.m.Snapshot()
		in := &endless{sch: big.Schema, row: types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("row")}}
		op, a := aggStage(topsPass(aggOf(big), 2), in, e.ctx(ctx))
		opened := make(chan error, 1)
		go func() { opened <- op.Open() }()
		waitFor(t, "the router to fill its queues", func() bool { return in.n.Load() > 4*chanCap*chunkCap })
		cancel()
		if err := <-opened; !errors.Is(err, context.Canceled) {
			t.Errorf("Open under cancel = %v, want context.Canceled", err)
		}
		op.Close()
		waitFor(t, "the aggregation's goroutines to exit", settled)
		// The final merge charges the query meter itself, so the total is
		// not the workers' alone; what they charged must all be in it.
		if sum := forwarded(t, "cancelled agg", a.reg); sum.TupleCPU == 0 {
			t.Error("the partial workers charged nothing: the test saw no work")
		} else if d := e.m.Snapshot().Sub(before); d.TupleCPU < sum.TupleCPU {
			t.Errorf("query meter moved by %d tuples, the partial workers alone charged %d", d.TupleCPU, sum.TupleCPU)
		}
	})
}

// endless yields the same row forever.
type endless struct {
	sch *types.Schema
	row types.Tuple
	n   atomic.Int64
}

func (s *endless) Schema() *types.Schema { return s.sch }
func (s *endless) Open() error           { return nil }
func (s *endless) Close() error          { return nil }
func (s *endless) Next() (types.Tuple, error) {
	s.n.Add(1)
	return s.row, nil
}

// emptyFreeList drops every chunk on the package free list, so that a
// test sees only the chunks it recycled itself.
func emptyFreeList() {
	for {
		select {
		case <-free:
		default:
			return
		}
	}
}

// A consumer may keep every tuple it is handed: recycling the chunk that
// carried them reuses the chunk's slots, never the tuples. That holds for
// a keeper handed values a producer copied into a chunk's block too: its
// chunks go back without them, so the next producer to take one writes a
// new block.
func TestRetainedTuplesSurviveChunkRecycling(t *testing.T) {
	e := newEnv()
	tbl := e.table(t, "r", 8*chanCap*chunkCap)
	emptyFreeList()
	g := leafStage(topsPass(scanOf(tbl), 2), e.ctx(context.Background()))
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var kept, copies []types.Tuple
	for {
		tup, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		kept, copies = append(kept, tup), append(copies, tup.Clone())
	}
	if len(kept) != 8*chanCap*chunkCap {
		t.Fatalf("gathered %d tuples, want %d", len(kept), 8*chanCap*chunkCap)
	}
	if len(free) == 0 {
		t.Fatal("no chunk was recycled: the test saw no reuse")
	}
	for i := range kept {
		if !kept[i].Equal(copies[i]) {
			t.Fatalf("tuple %d changed after its chunk was recycled: %v, was %v", i, kept[i], copies[i])
		}
	}

	// Two rounds through one queue: a producer that copies, as one whose
	// reader lends does, and a reader that keeps. The second round takes
	// the chunks the first gave back and fills them with other values.
	const rows = 3*chunkCap + 7
	round := func(base int64) (kept []types.Tuple) {
		r := newRegion(context.Background())
		q := make(chan *chunk, rows/chunkCap+1)
		box := newOutbox(r, nil, true, q)
		for i := int64(0); i < rows; i++ {
			box.put(0, intRow(base+i, base-i))
		}
		if err := box.finish(&sliceOp{}); err != nil {
			t.Fatal(err)
		}
		close(q)
		in := inbox{r: r, q: q}
		for {
			tup, err := in.next()
			if err != nil {
				t.Fatal(err)
			}
			if tup == nil {
				return kept
			}
			kept = append(kept, tup)
		}
	}
	emptyFreeList()
	first := round(0)
	if len(free) != rows/chunkCap+1 {
		t.Fatalf("%d chunks on the free list after the keeper drained %d", len(free), rows/chunkCap+1)
	}
	for range len(free) {
		c := <-free
		if c.vals != nil {
			t.Fatalf("a keeper's chunk came back holding %d values", len(c.vals))
		}
		free <- c
	}
	round(1 << 20)
	for i, tup := range first {
		if want := intRow(int64(i), int64(-i)); !tup.Equal(want) {
			t.Fatalf("kept tuple %d reads %v after its chunk carried another round, was %v", i, tup, want)
		}
	}
}

// The gather hop allocates for the chunks alive at once — not per tuple,
// and not per chunk sent.
func TestGatherHopAllocations(t *testing.T) {
	e := newEnv()
	const chunks = 200
	tbl := e.table(t, "r", chunks*chunkCap)
	drain := func(n plan.Node) func() {
		return func() {
			op, err := exec.Build(n, e.ctx(context.Background()))
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if got, err := exec.Drain(op); err != nil || got != chunks*chunkCap {
				t.Fatalf("drained %d tuples: %v", got, err)
			}
			op.Close()
		}
	}
	scan := testing.AllocsPerRun(5, drain(scanOf(tbl)))
	for _, deg := range []int{1, 2} {
		hop := testing.AllocsPerRun(5, drain(topsPass(scanOf(tbl), deg))) - scan
		t.Logf("degree %d: %.0f allocations over the bare scan's %.0f, %d chunks sent", deg, hop, scan, chunks)
		if hop > chunks/2 {
			t.Errorf("degree %d: gather adds %.0f allocations for %d chunks; want a fixed set-up cost plus the live chunks", deg, hop, chunks)
		}
	}
}

// unbuildable is a plan node exec.Build has no operator for.
type unbuildable struct{ *plan.Scan }

// A consumer that calls Next after a failed Open — no producer was
// spawned, so nobody will ever close the queue — gets the region's error
// instead of blocking. A join's probe scans are assembled in Open with
// the rest of the region, so one that cannot be built fails Open too.
func TestNextAfterFailedStartReturnsTheError(t *testing.T) {
	e := newEnv()
	tbl := e.table(t, "r", 100)
	g := leafStage(&plan.Exchange{Input: unbuildable{scanOf(tbl)}, Degree: 2}, e.ctx(context.Background()))
	openErr := g.Open()
	if openErr == nil || !strings.Contains(openErr.Error(), "no operator") {
		t.Fatalf("gather Open = %v, want the build error", openErr)
	}
	if _, err := nextOrTimeout(t, g); err != openErr {
		t.Errorf("gather Next after failed Open = %v, want %v", err, openErr)
	}
	g.Close()

	join := joinOf(tbl, tbl)
	x := topsPass(join, 2).(*plan.Exchange)
	join.Probe = unbuildable{scanOf(tbl)}
	op, err := exec.Build(x, e.ctx(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	probeErr := op.Open()
	if probeErr == nil || !strings.Contains(probeErr.Error(), "no operator") {
		t.Fatalf("join Open = %v, want the probe's build error", probeErr)
	}
	if _, err := nextOrTimeout(t, op); err != probeErr {
		t.Errorf("join Next after failed Open = %v, want %v", err, probeErr)
	}
	op.Close()
}
