package storage

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// lineitemRow is shaped like TPC-D lineitem: 16 columns, four ints, four
// floats, three dates, two one-byte flags and three longer strings.
func lineitemRow(i int) types.Tuple {
	return types.Tuple{
		types.NewInt(int64(i / 4)), types.NewInt(int64(i % 2000)), types.NewInt(int64(i % 100)), types.NewInt(int64(i % 4)),
		types.NewFloat(float64(i%50 + 1)), types.NewFloat(float64(i%9000) + 0.5), types.NewFloat(float64(i%11) / 100), types.NewFloat(float64(i%9) / 100),
		types.NewString("RAN"[i%3 : i%3+1]), types.NewString("OF"[i%2 : i%2+1]),
		types.NewDate(int64(8000 + i%2500)), types.NewDate(int64(8030 + i%2500)), types.NewDate(int64(8010 + i%2500)),
		types.NewString("DELIVER IN PERSON"), types.NewString("TRUCK"),
		types.NewString(fmt.Sprintf("carefully final deposits %d", i)),
	}
}

func lineitemHeap(b *testing.B, n int) (*HeapFile, *TxnSnapshot) {
	b.Helper()
	bp, _ := newTestPool(256)
	h := NewStampedHeapFile(bp)
	for i := 0; i < n; i++ {
		if _, err := h.Append(lineitemRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	return h, NewTxnManager().LatestSnapshot()
}

var sinkTuple types.Tuple

// lessThan is "column col < c" the way plan.CompileFilter compiles it
// (this package's tests cannot import plan): a compare of the stored
// bytes, NULL failing.
type lessThan struct {
	col int
	c   types.Value
}

func (f lessThan) Test(rec []byte, shape *types.Shape) (bool, error) {
	if f.col >= shape.Width() {
		return false, nil
	}
	if kind, _, _ := shape.Word(rec, f.col); kind == types.KindNull {
		return false, nil
	}
	c, err := types.CompareAt(rec, shape, f.col, f.c)
	return c < 0 && err == nil, err
}

// BenchmarkHeapScan reports ns and allocations per tuple examined, for a
// snapshot scan that returns everything; one with a pushed filter on one
// date column that passes 2 % of the rows; the scan behind an UPDATE or
// DELETE by key — full width, a filter on column 0 that nothing passes;
// a late-column scan, the 2 % filter on column 10 under a projection of
// four columns; and the first one lent, as under an aggregate or a join's
// probe, whose B/op is all beside all's.
func BenchmarkHeapScan(b *testing.B) {
	const n = 20000
	h, snap := lineitemHeap(b, n)
	run := func(b *testing.B, filter RecordFilter, cols []int, lend bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			s := h.Scan().WithSnapshot(snap).WithColumns(cols)
			if filter != nil {
				s.WithFilter(filter)
			}
			if lend {
				s.Lend()
			}
			for s.Next() {
				sinkTuple = s.Tuple()
			}
			if s.Err() != nil {
				b.Fatal(s.Err())
			}
		}
	}
	b.Run("all", func(b *testing.B) { run(b, nil, nil, false) })
	b.Run("filter2pct", func(b *testing.B) { run(b, lessThan{10, types.NewDate(8050)}, nil, false) })
	b.Run("dml", func(b *testing.B) { run(b, lessThan{0, types.NewInt(-1)}, nil, false) })
	b.Run("late4of16", func(b *testing.B) { run(b, lessThan{10, types.NewDate(8050)}, []int{4, 5, 6, 10}, false) })
	b.Run("lent", func(b *testing.B) { run(b, nil, nil, true) })
}

// BenchmarkHeapScanProjected is BenchmarkHeapScan/all keeping four of
// the sixteen columns — quantity, price, discount, ship date, what TPC-D
// Q6 reads — so the two print bytes and allocations per tuple side by
// side: the strings a query never looks at are most of the difference.
func BenchmarkHeapScanProjected(b *testing.B) {
	const n = 20000
	h, snap := lineitemHeap(b, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i += n {
		s := h.Scan().WithSnapshot(snap).WithColumns([]int{4, 5, 6, 10})
		for s.Next() {
			sinkTuple = s.Tuple()
		}
		if s.Err() != nil {
			b.Fatal(s.Err())
		}
	}
}

func BenchmarkHeapAppend(b *testing.B) {
	bp, _ := newTestPool(256)
	rows := make([]types.Tuple, 1024)
	for i := range rows {
		rows[i] = lineitemRow(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var h *HeapFile
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 { // bound the file: start a new one now and then
			if h != nil {
				h.Drop()
			}
			h = NewTempFile(bp, bp.Disk().Meter())
		}
		if _, err := h.Append(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPinUnpin is the pool's hit path: one cached page.
func BenchmarkPinUnpin(b *testing.B) {
	bp, _ := newTestPool(256)
	id, _, err := bp.PinNew()
	if err != nil {
		b.Fatal(err)
	}
	bp.Unpin(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Pin(id); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(id)
	}
}
