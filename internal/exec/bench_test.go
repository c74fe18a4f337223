package exec

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
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

// BenchmarkHashJoinSpilled runs a 1:1 join of two 4 000-row tables
// whose build side overflows its grant and goes two-pass, 8 partitions a
// side, and reports time and allocations per join: both scans, writing
// the partitions, reading each pair back and the joined tuples.
func BenchmarkHashJoinSpilled(b *testing.B) {
	const n = 4000
	e := newEnv(1024)
	l := e.makeTable(b, "l", n, n)
	r := e.makeTable(b, "r", n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		j := NewHashJoin(hashJoinNode(e, b, l, r, 8192), mustBuild(b, e, scanNode(l)), mustBuild(b, e, scanNode(r)), e.ctx)
		if err := j.Open(); err != nil {
			b.Fatal(err)
		}
		got, err := Drain(j)
		if err != nil || got != n || !j.Spilled() {
			b.Fatalf("the join returned %d rows, spilled %t (%v)", got, j.Spilled(), err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkAggAbsorb folds in-memory rows into their groups: time, bytes
// and allocations per input row. kv is 1 000 INTEGER groups under five
// aggregates, MIN and MAX among them; q1 is TPC-D Q1's shape, four groups
// of two one-character VARCHAR keys under SUM and AVG of INTEGER and
// FLOAT columns and COUNT(*).
func BenchmarkAggAbsorb(b *testing.B) {
	e := newEnv(64)
	e.makeTable(b, "r", 1, 1)
	b.Run("kv", func(b *testing.B) {
		benchAbsorb(b, e.ctx, aggNode(b, e, "r", 0), kvRows(1<<16, 1000))
	})
	b.Run("q1", func(b *testing.B) {
		node, rows := q1Shape(1 << 16)
		benchAbsorb(b, e.ctx, node, rows)
	})
}

func benchAbsorb(b *testing.B, ctx *Ctx, node *plan.Agg, rows []types.Tuple) {
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(rows) {
		a := NewAgg(node, nil, ctx)
		a.compile()
		for _, r := range rows {
			if err := a.absorb(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// q1Shape is n rows (flag, status VARCHAR, qty INTEGER, price, disc FLOAT)
// in four groups of (flag, status), and an aggregate over them like TPC-D
// Q1's: sum(qty), sum(price), avg(qty), avg(price), avg(disc), count(*).
func q1Shape(n int) (*plan.Agg, []types.Tuple) {
	cols := []types.Column{
		{Name: "flag", Kind: types.KindString},
		{Name: "status", Kind: types.KindString},
		{Name: "qty", Kind: types.KindInt},
		{Name: "price", Kind: types.KindFloat},
		{Name: "disc", Kind: types.KindFloat},
	}
	arg := func(i int) plan.Expr { return &plan.ColExpr{Idx: i, Col: cols[i]} }
	node := &plan.Agg{
		GroupCols: []int{0, 1},
		Aggs: []plan.AggSpec{
			{Func: sql.AggSum, Arg: arg(2), Name: "sum_qty"},
			{Func: sql.AggSum, Arg: arg(3), Name: "sum_price"},
			{Func: sql.AggAvg, Arg: arg(2), Name: "avg_qty"},
			{Func: sql.AggAvg, Arg: arg(3), Name: "avg_price"},
			{Func: sql.AggAvg, Arg: arg(4), Name: "avg_disc"},
			{Func: sql.AggCount, Name: "count_order"},
		},
		Out: types.NewSchema(cols[0], cols[1],
			types.Column{Name: "sum_qty", Kind: types.KindInt},
			types.Column{Name: "sum_price", Kind: types.KindFloat},
			types.Column{Name: "avg_qty", Kind: types.KindFloat},
			types.Column{Name: "avg_price", Kind: types.KindFloat},
			types.Column{Name: "avg_disc", Kind: types.KindFloat},
			types.Column{Name: "count_order", Kind: types.KindInt},
		),
	}
	keys := [4][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := keys[i%4]
		rows[i] = types.Tuple{
			types.NewString(k[0]), types.NewString(k[1]),
			types.NewInt(int64(1 + rng.Intn(50))),
			types.NewFloat(float64(rng.Intn(1e6)) / 100),
			types.NewFloat(float64(rng.Intn(11)) / 100),
		}
	}
	return node, rows
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
