package exec

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

var sinkTuple types.Tuple

// BenchmarkHashJoinProbe joins a 400-row build side against a 20 000-row
// probe side in memory, one output row per probe row, and reports time
// and bytes per output row (b.N counts them) — the scans of both inputs,
// the build, the probe and the joined tuples — and how many output rows
// one allocation pays for.
func BenchmarkHashJoinProbe(b *testing.B) {
	const probeRows = 20000
	e := newEnv(1024)
	small := e.makeTable(b, "small", 400, 400)
	big := e.makeTable(b, "big", probeRows, 400)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for rows < b.N {
		op, err := Build(hashJoinNode(e, b, small, big, 0), e.ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			t, err := op.Next()
			if err != nil {
				b.Fatal(err)
			}
			if t == nil {
				break
			}
			sinkTuple = t
			n++
		}
		if err := op.Close(); err != nil || n != probeRows {
			b.Fatalf("join produced %d rows, %v", n, err)
		}
		rows += n
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(rows)/float64(after.Mallocs-before.Mallocs), "rows/alloc")
}

var sinkEntry int32

// BenchmarkHashIndex times the index by itself: build (add N hashes,
// seal) and probe (one lookup per entry), per entry.
func BenchmarkHashIndex(b *testing.B) {
	const n = 1 << 16
	hs := make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		var x hashIndex
		for i := 0; i < b.N; i += n {
			x = hashIndex{}
			for _, h := range hs {
				x.add(h)
			}
			x.seal()
		}
	})
	b.Run("probe", func(b *testing.B) {
		var x hashIndex
		for _, h := range hs {
			x.add(h)
		}
		x.seal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkEntry = x.first(hs[i%n])
		}
	})
}

// BenchmarkAggAbsorb folds in-memory rows into 1 000 groups under five
// aggregates: time, bytes and allocations per input row.
func BenchmarkAggAbsorb(b *testing.B) {
	e := newEnv(64)
	e.makeTable(b, "r", 1, 1)
	node := aggNode(b, e, "r", 0)
	rows := kvRows(1<<16, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(rows) {
		a := &Agg{node: node, ctx: e.ctx, keyCols: node.GroupCols}
		for _, r := range rows {
			if err := a.absorb(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var sinkObserved *plan.Observed

// BenchmarkCollectorSmallStream runs one statement-sized collector per
// op — a one-histogram state over 25 rows, from NewCollectorState to the
// report — for its time, bytes and allocations.
func BenchmarkCollectorSmallStream(b *testing.B) {
	node, rows := smallStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := NewCollectorState(node, 0)
		for _, r := range rows {
			st.Observe(r)
		}
		sinkObserved = st.Observed()
	}
}
