package exec

import (
	"runtime"
	"testing"

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
