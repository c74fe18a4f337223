package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// opaquePred hides a predicate from plan.PredColumns, the way a
// predicate type added later would be.
type opaquePred struct{ plan.Pred }

// scanStep is everything observable after one Next of a scan pipeline.
type scanStep struct {
	tup   types.Tuple
	cost  storage.Snapshot
	hits  int
	ticks int
}

// runSteps drains op from a cold pool, recording the meter, the fault
// site's hit count and the tick counter after every Next — the last
// step is the end of stream.
func runSteps(t *testing.T, e *testEnv, inj *faultinject.Injector, op Operator) []scanStep {
	t.Helper()
	e.pool.EvictAll()
	e.ctx.ticks = 0
	start, hits := e.ctx.Meter.Snapshot(), inj.Hits("exec.scan.next")
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var steps []scanStep
	for {
		tup, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, scanStep{tup, e.ctx.Meter.Snapshot().Sub(start), inj.Hits("exec.scan.next") - hits, e.ctx.ticks})
		if tup == nil {
			return steps
		}
	}
}

// Pushing a scan's filters into the storage scanner must be invisible:
// the same tuples, and after each of them the same meter reading, fault
// site hits and ticks as an unfiltered scan under a Filter operator —
// whether the scanner decodes the filter's columns first or, for a
// predicate it cannot see into, whole tuples.
func TestSeqScanPushdownIsInvisible(t *testing.T) {
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)
	e := newEnv(4) // far fewer frames than pages: reads interleave with tuples
	e.ctx.Context = context.Background()
	e.ctx.CheckEvery = 1 << 30 // count ticks, never reset them
	e.ctx.Params = plan.Params{"lo": types.NewInt(2)}
	tbl := e.makeTable(t, "r", 6000, 10)
	if tbl.Heap.NumPages() < 20 {
		t.Fatalf("table has %d pages, want many", tbl.Heap.NumPages())
	}
	for name, conds := range map[string][]string{
		"selective":    {"v = 3", "k between 1000 and 4000"},
		"host var":     {"v >= :lo", "s like 'r%'"},
		"none pass":    {"v in (11, 12)"},
		"all pass":     {"k + v >= 0"},
		"page tails":   {"k < 50"},
		"no predicate": nil,
	} {
		var preds, hidden []plan.Pred
		for _, c := range conds {
			p := mustPred(t, tbl.Schema, c)
			preds, hidden = append(preds, p), append(hidden, opaquePred{p})
		}
		want := runSteps(t, e, inj, NewFilter(&plan.Filter{Input: scanNode(tbl), Preds: preds}, NewSeqScan(scanNode(tbl), e.ctx), e.ctx))
		if last := want[len(want)-1]; last.hits != 6000 || last.ticks != 6000 || last.cost.TupleCPU != 6000 {
			t.Fatalf("%s: reference examined %d/%d/%d tuples, want 6000", name, last.hits, last.ticks, last.cost.TupleCPU)
		}
		for variant, filters := range map[string][]plan.Pred{"columns": preds, "whole tuple": hidden} {
			got := runSteps(t, e, inj, NewSeqScan(scanNode(tbl, filters...), e.ctx))
			if len(got) != len(want) {
				t.Errorf("%s, %s: %d tuples, want %d", name, variant, len(got)-1, len(want)-1)
				continue
			}
			for i := range got {
				if !got[i].tup.Equal(want[i].tup) || got[i].cost != want[i].cost || got[i].hits != want[i].hits || got[i].ticks != want[i].ticks {
					t.Errorf("%s, %s: after Next %d: %v cost{%v} hits %d ticks %d; want %v cost{%v} hits %d ticks %d", name, variant, i,
						got[i].tup, got[i].cost, got[i].hits, got[i].ticks, want[i].tup, want[i].cost, want[i].hits, want[i].ticks)
					break
				}
			}
		}
	}
}

// A fault on the k-th examined tuple — wherever it falls: a survivor, a
// rejected tuple, the rejected tail of a page — stops a pushed-filter
// scan with the meter where the unpushed pipeline's stands: tuples
// charged up to the one before, no page read ahead of its time.
func TestSeqScanPushdownFaultsAtTheSamePoint(t *testing.T) {
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)
	e := newEnv(4)
	tbl := e.makeTable(t, "r", 6000, 10)
	preds := []plan.Pred{mustPred(t, tbl.Schema, "k < 50")} // all but the first page is tail
	boom := errors.New("boom")
	failAt := func(op Operator, k int) (int, storage.Snapshot) {
		t.Helper()
		e.pool.EvictAll()
		start := e.ctx.Meter.Snapshot()
		inj.Arm("exec.scan.next", faultinject.Fault{Err: boom, After: k})
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		for n := 0; ; n++ {
			if tup, err := op.Next(); err != nil || tup == nil {
				if err != boom {
					t.Fatalf("fault armed at hit %d: scan ended with %v", k, err)
				}
				return n, e.ctx.Meter.Snapshot().Sub(start)
			}
		}
	}
	perPage := 6000 / tbl.Heap.NumPages()
	for _, k := range []int{1, 17, 50, 51, perPage, perPage + 1, 3*perPage + 2, 5999, 6000} {
		wantN, want := failAt(NewFilter(&plan.Filter{Input: scanNode(tbl), Preds: preds}, NewSeqScan(scanNode(tbl), e.ctx), e.ctx), k)
		gotN, got := failAt(NewSeqScan(scanNode(tbl, preds...), e.ctx), k)
		if gotN != wantN || got != want {
			t.Errorf("fault at hit %d: %d tuples then cost{%v}, want %d then cost{%v}", k, gotN, got, wantN, want)
		}
		if want.TupleCPU != int64(k-1) {
			t.Errorf("fault at hit %d: reference charged %d tuples", k, want.TupleCPU)
		}
	}
}

// A filter error surfaces from Next unwrapped, after the tuples before it.
func TestSeqScanFilterErrorPropagates(t *testing.T) {
	e := newEnv(16)
	tbl := e.makeTable(t, "r", 500, 10)
	op := NewSeqScan(scanNode(tbl, mustPred(t, tbl.Schema, "v = :unbound")), e.ctx)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if tup, err := op.Next(); err == nil {
		t.Fatalf("Next = %v, want the unbound host variable's error", tup)
	}
	if got := e.ctx.Meter.Snapshot().TupleCPU; got != 1 {
		t.Errorf("charged %d tuples before failing on the first, want 1", got)
	}
}

// Every page a scan path misses is charged to the context's meter, not
// to the disk's: with a tributary as the context's meter — a statement's
// own meter — a serial scan, a DML match scan, an index join's probes
// and fetches, and a hash join and a sort that spill leave the engine's
// meter untouched until the tributary is flushed, and then it holds
// every charge. The B+tree charges its leaf reads, one a probe, to the
// caller's meter too; a spill file is the query's, so its re-reads and
// the writes back of its pages, which a pool of four frames forces, are
// the query's as well.
func TestScanPathsChargeReadsToTheContextMeter(t *testing.T) {
	e := newEnv(4)
	big := e.makeTable(t, "big", 3000, 37)
	small := e.makeTable(t, "small", 400, 37)
	if err := e.cat.CreateIndex("small", "v"); err != nil {
		t.Fatal(err)
	}
	engine := e.ctx.Meter
	for name, run := range map[string]func(ctx *Ctx) (reads int64, spills bool){
		"serial scan": func(ctx *Ctx) (int64, bool) {
			collectAll(t, NewSeqScan(scanNode(big, mustPred(t, big.Schema, "v = 3")), ctx))
			return int64(big.Heap.NumPages()), false
		},
		"dml match": func(ctx *Ctx) (int64, bool) {
			if _, err := matchVisible(ctx, big, []plan.Pred{mustPred(t, big.Schema, "k = 7")}, nil); err != nil {
				t.Fatal(err)
			}
			return int64(big.Heap.NumPages()), false
		},
		"index join": func(ctx *Ctx) (int64, bool) {
			j, err := NewIndexJoin(&plan.IndexJoin{Outer: scanNode(big, mustPred(t, big.Schema, "k < 200")), Table: small,
				Binding: "small", OuterKey: 1, InnerCol: 1, InnerOut: small.Schema}, NewSeqScan(scanNode(big, mustPred(t, big.Schema, "k < 200")), ctx), ctx)
			if err != nil {
				t.Fatal(err)
			}
			collectAll(t, j)
			return int64(big.Heap.NumPages()) + 200, false
		},
		"spilling hash join": func(ctx *Ctx) (int64, bool) {
			j := hashJoinNode(e, t, big, small, 4096)
			op := NewHashJoin(j, NewSeqScan(scanNode(big), ctx), NewSeqScan(scanNode(small), ctx), ctx)
			collectAll(t, op)
			if !op.Spilled() {
				t.Fatal("the hash join did not spill")
			}
			return int64(big.Heap.NumPages() + small.Heap.NumPages()), true
		},
		"external sort": func(ctx *Ctx) (int64, bool) {
			s := &plan.Sort{Input: scanNode(big), Keys: []plan.SortKey{{Col: 1}, {Col: 0}}}
			s.Est().Grant = 4096
			op := NewSort(s, NewSeqScan(scanNode(big), ctx), ctx)
			collectAll(t, op)
			if !op.Spilled() {
				t.Fatal("the sort did not spill")
			}
			return int64(big.Heap.NumPages()), true
		},
	} {
		e.pool.EvictAll()
		ctx := *e.ctx
		ctx.Meter = engine.Tributary()
		before := engine.Snapshot()
		reads, spills := run(&ctx)
		own := ctx.Meter.Snapshot()
		if d := engine.Snapshot().Sub(before); d != (storage.Snapshot{Weights: d.Weights}) || own.PageReads < reads {
			t.Errorf("%s: the engine's meter moved by %v before the flush, want nothing; the context's holds %d reads of at least %d",
				name, d, own.PageReads, reads)
		}
		if spills && (own.PageReads == reads || own.PageWrites == 0) {
			t.Errorf("%s: spilled, yet the context's meter holds %v: no re-read or write-back", name, own)
		}
		ctx.Meter.Flush()
		if d := engine.Snapshot().Sub(before); d != own {
			t.Errorf("%s: after the flush the engine's meter moved by %v, the context's holds %v", name, d, own)
		}
	}
}
