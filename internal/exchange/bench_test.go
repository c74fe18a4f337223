package exchange

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/tpcd"
)

// lineitem loads a small TPC-D database and returns its lineitem table
// (about 18k rows of 16 columns) and the row count.
func lineitem(b *testing.B) (*testEnv, *catalog.Table, int) {
	b.Helper()
	e := newEnv()
	cfg := tpcd.Config{SF: 0.003, Seed: 1, SkipIndexes: true, SkipAnalyze: true}
	if err := tpcd.Load(e.cat, cfg); err != nil {
		b.Fatal(err)
	}
	li, err := e.cat.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	return e, li, int(li.Heap.NumTuples())
}

// BenchmarkGatherScan reports ns and allocations per lineitem tuple for a
// scan behind a gather: one worker (the hop alone) and two, for a reader
// that keeps what it is handed; and two lent, as under an aggregate or a
// projection, whose B/op is degree2's beside it.
func BenchmarkGatherScan(b *testing.B) {
	e, li, n := lineitem(b)
	run := func(b *testing.B, deg int, lend bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			op, err := exec.Build(topsPass(scanOf(li), deg), e.ctx(context.Background()))
			if err != nil {
				b.Fatal(err)
			}
			if lend {
				exec.Lend(op)
			}
			if err := op.Open(); err != nil {
				b.Fatal(err)
			}
			if got, err := exec.Drain(op); err != nil || int(got) != n {
				b.Fatalf("drained %d of %d tuples: %v", got, n, err)
			}
			op.Close()
		}
	}
	for _, deg := range []int{1, 2} {
		b.Run(fmt.Sprintf("degree%d", deg), func(b *testing.B) { run(b, deg, false) })
	}
	b.Run("lent", func(b *testing.B) { run(b, 2, true) })
}

// BenchmarkHashRoute reports ns per tuple for the join's routing hop on
// its own: one router hashing lineitem rows on l_orderkey into two
// queues, one consumer draining each.
func BenchmarkHashRoute(b *testing.B) {
	e, li, _ := lineitem(b)
	op, err := exec.Build(scanOf(li), e.ctx(context.Background()))
	if err != nil {
		b.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		b.Fatal(err)
	}
	const deg = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(rows) {
		r := newRegion(context.Background())
		qs := makeQueues(deg)
		var wg sync.WaitGroup
		for _, q := range qs {
			wg.Add(1)
			go func(src *source) {
				defer wg.Done()
				for {
					if t, err := src.Next(); t == nil {
						if err != nil {
							b.Error(err)
						}
						return
					}
				}
			}(newSource(r, q, false, li.Schema))
		}
		box := newOutbox(r, nil, false, qs...)
		for _, t := range rows {
			box.put(int(exec.HashKeys(t, []int{0})%deg), t)
		}
		if err := box.finish(&sliceOp{}); err != nil {
			b.Fatal(err)
		}
		lastOf(1, qs...)()
		wg.Wait()
		r.cancel()
	}
}
