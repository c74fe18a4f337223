package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/types"
)

type scanned struct {
	rid RID
	tup types.Tuple
}

// tupleFilter is a RecordFilter over a predicate on tuples, the way
// plan's filters wrap a predicate they cannot compile: views of the
// columns the predicate reads (every column for nil), each at its own
// ordinal in a tuple reused from record to record.
type tupleFilter struct {
	cols    []int
	pass    func(types.Tuple) (bool, error)
	scratch types.Tuple
}

func filterOn(cols []int, pass func(types.Tuple) (bool, error)) *tupleFilter {
	return &tupleFilter{cols: cols, pass: pass}
}

func (f *tupleFilter) Test(rec []byte, shape *types.Shape) (bool, error) {
	width := shape.Width()
	if cap(f.scratch) < width {
		f.scratch = make(types.Tuple, width)
	}
	probe := f.scratch[:width]
	var err error
	for i := 0; f.cols == nil && i < width && err == nil; i++ {
		probe[i], err = types.View(rec, shape, i)
	}
	for _, c := range f.cols {
		if c < width && err == nil {
			probe[c], err = types.View(rec, shape, c)
		}
	}
	if err != nil {
		return false, err
	}
	return f.pass(probe)
}

func sameScan(a, b []scanned) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tuples, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].rid != b[i].rid || !a[i].tup.Equal(b[i].tup) {
			return fmt.Errorf("position %d: %v %v, want %v %v", i, a[i].rid, a[i].tup, b[i].rid, b[i].tup)
		}
	}
	return nil
}

func drainScan(t *testing.T, s *HeapScanner) []scanned {
	t.Helper()
	var out []scanned
	for s.Next() {
		out = append(out, scanned{s.RID(), s.Tuple()})
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return out
}

// fetchAll is the reference a scan is held to: FetchVisible over every
// slot of the partition's pages, in order.
func fetchAll(t *testing.T, h *HeapFile, snap *TxnSnapshot, part, of int) []scanned {
	t.Helper()
	var out []scanned
	for idx := part; idx < len(h.pages); idx += of {
		id := h.pages[idx]
		buf, err := h.pool.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		slots := LoadSlottedPage(buf).NumSlots()
		h.pool.Unpin(id)
		for slot := 0; slot < slots; slot++ {
			rid := RID{Page: id, Slot: slot}
			tup, ok, err := h.Fetcher(nil).FetchVisible(rid, snap)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out = append(out, scanned{rid, tup})
			}
		}
	}
	return out
}

// churnedHeap builds a stamped heap with a frozen load, committed
// inserts, updates and deletes, aborted inserts, swept slots, one
// transaction left in flight, and a snapshot taken at each stage.
func churnedHeap(t *testing.T, r *rand.Rand, bp *BufferPool) (*HeapFile, []*TxnSnapshot, func()) {
	t.Helper()
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	var live []RID
	for i := 0; i < 300+r.Intn(300); i++ {
		rid, err := h.Append(wideRow(r, i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rid)
	}
	snaps := []*TxnSnapshot{nil}
	var readers []*Txn
	hold := func() {
		rd := m.BeginRead()
		readers = append(readers, rd)
		snaps = append(snaps, rd.Snapshot())
	}
	hold()
	for round := 0; round < 12; round++ {
		tx := m.Begin()
		before := slices.Clone(live)
		for i := 0; i < 1+r.Intn(40); i++ {
			rid, err := tx.InsertTuple(h, wideRow(r, 1000*round+i))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, rid)
		}
		for i := 0; i < r.Intn(30) && len(live) > 0; i++ {
			k := r.Intn(len(live))
			if err := tx.DeleteTuple(h, live[k]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
		}
		if round%4 == 3 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			live = before
		} else {
			tx.Commit()
		}
		if round == 5 {
			// A sweep under no reader: slots vanish, pages compact.
			for _, rd := range readers {
				rd.End()
			}
			readers = nil
			if _, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 0 {
			hold()
		}
	}
	open := m.Begin() // in flight for the rest of the test
	for i := 0; i < 20; i++ {
		if _, err := open.InsertTuple(h, wideRow(r, 99000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := open.DeleteTuple(h, live[0]); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, open.Snapshot())
	hold()
	return h, snaps, func() {
		open.Abort()
		for _, rd := range readers {
			rd.End()
		}
	}
}

// wideRow has every kind, a NULL now and then, and strings long enough
// that a page holds a few dozen rows.
func wideRow(r *rand.Rand, i int) types.Tuple {
	t := types.Tuple{
		types.NewInt(int64(i)),
		types.NewFloat(r.Float64() * 100),
		types.NewString(fmt.Sprintf("name-%d-%0*d", i, r.Intn(60), 0)),
		types.NewDate(int64(9000 + r.Intn(2000))),
		types.NewString("f"),
	}
	if r.Intn(10) == 0 {
		t[r.Intn(len(t))] = types.Null()
	}
	return t
}

func TestScanMatchesFetchVisible(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		bp, _ := newTestPool(4 + r.Intn(32))
		h, snaps, done := churnedHeap(t, r, bp)
		for si, snap := range snaps {
			if err := sameScan(drainScan(t, h.Scan().WithSnapshot(snap)), fetchAll(t, h, snap, 0, 1)); err != nil {
				t.Errorf("seed %d snapshot %d: full scan: %v", seed, si, err)
			}
			for _, of := range []int{2, 3, 7} {
				for part := 0; part < of; part++ {
					got := drainScan(t, h.ScanPartition(part, of, nil).WithSnapshot(snap))
					if err := sameScan(got, fetchAll(t, h, snap, part, of)); err != nil {
						t.Errorf("seed %d snapshot %d: partition %d/%d: %v", seed, si, part, of, err)
					}
				}
			}
		}
		done()
	}
}

// A filter pushed with its columns, the same filter pushed without them,
// and no filter plus a test by the caller must agree on the tuples and
// on how many tuples were examined before each.
func TestScanFilterPushdownEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bp, _ := newTestPool(16)
	h, snaps, done := churnedHeap(t, r, bp)
	defer done()
	pass := func(tup types.Tuple) (bool, error) {
		return !tup[0].IsNull() && tup[0].Int()%7 == 0 && !tup[3].IsNull(), nil
	}
	type step struct {
		scanned
		examined int
	}
	run := func(s *HeapScanner, test func(types.Tuple) (bool, error)) []step {
		examined := 0
		s.OnExamine(func() error { examined++; return nil })
		var out []step
		for s.Next() {
			if test != nil {
				if ok, _ := test(s.Tuple()); !ok {
					continue
				}
			}
			out = append(out, step{scanned{s.RID(), s.Tuple()}, examined})
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		out = append(out, step{examined: examined}) // the tail after the last survivor
		return out
	}
	for si, snap := range snaps {
		want := run(h.Scan().WithSnapshot(snap), pass)
		for name, cols := range map[string][]int{"columns": {0, 3}, "whole tuple": nil} {
			got := run(h.Scan().WithSnapshot(snap).WithFilter(filterOn(cols, pass)), nil)
			if len(got) != len(want) {
				t.Fatalf("snapshot %d, %s: %d steps, want %d", si, name, len(got), len(want))
			}
			for i := range got {
				if got[i].examined != want[i].examined || got[i].rid != want[i].rid || !got[i].tup.Equal(want[i].tup) {
					t.Fatalf("snapshot %d, %s, step %d: %+v, want %+v", si, name, i, got[i], want[i])
				}
			}
		}
	}
}

// The filter sees a reused scratch tuple; what the scan returns must
// never be that scratch, nor share storage with an earlier tuple.
func TestScanTuplesAreNotOverwritten(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := h.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	even := func(tup types.Tuple) (bool, error) { return tup[0].Int()%2 == 0, nil }
	var kept []types.Tuple
	s := h.Scan().WithFilter(filterOn([]int{0}, even))
	for s.Next() {
		kept = append(kept, s.Tuple())
	}
	if len(kept) != n/2 {
		t.Fatalf("kept %d tuples, want %d", len(kept), n/2)
	}
	for i, tup := range kept {
		if !tup.Equal(row(2 * i)) {
			t.Fatalf("retained tuple %d reads %v after the scan moved on", i, tup)
		}
	}
}

// A lent scan returns what an unlent one does, filtered or not, and
// carves every page's tuples from one recycled block: its allocations do
// not grow with the pages, and a tuple kept against the promise no longer
// reads as it did once later pages have loaded, while its string, never
// recycled, still does.
func TestLentScanRecyclesOneBlock(t *testing.T) {
	bp, _ := newTestPool(256)
	h := NewHeapFile(bp)
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := h.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages := h.NumPages()
	if pages < 20 {
		t.Fatalf("%d pages: too few to tell recycling from not", pages)
	}
	even := func(tup types.Tuple) (bool, error) { return tup[0].Int()%2 == 0, nil }
	for _, step := range []int{1, 2} {
		s := h.Scan().Lend()
		if step == 2 {
			s.WithFilter(filterOn([]int{0}, even))
		}
		var first types.Tuple
		var name types.Value // the first tuple's string, taken out of it
		i := 0
		for ; s.Next(); i++ {
			if !s.Tuple().Equal(row(step * i)) {
				t.Fatalf("lent tuple %d reads %v, want %v", i, s.Tuple(), row(step*i))
			}
			if i == 0 {
				first, name = s.Tuple(), s.Tuple()[1]
			}
		}
		if s.Err() != nil || i != n/step {
			t.Fatalf("lent scan returned %d tuples, want %d (%v)", i, n/step, s.Err())
		}
		if first.Equal(row(0)) {
			t.Errorf("the first lent tuple still reads %v after %d pages: its block was not recycled", first, pages)
		}
		if name.Str() != "row-0" {
			t.Errorf("the first lent tuple's string reads %q: string blocks are not recycled", name.Str())
		}
	}
	// The key column alone, so that only value blocks are allocated, of
	// every page and of every other page.
	allocs := func(of int, lend bool) float64 {
		return testing.AllocsPerRun(5, func() {
			s := h.ScanPartition(0, of, nil).WithColumns([]int{0})
			if lend {
				s.Lend()
			}
			for s.Next() {
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
		})
	}
	if all, half := allocs(1, false), allocs(2, false); all-half < float64(pages)/3 {
		t.Fatalf("unlent scans of %d and %d pages made %.0f and %.0f allocations: a block a page expected",
			pages, pages/2, all, half)
	}
	if all, half := allocs(1, true), allocs(2, true); all > half+2 {
		t.Errorf("lent scans of %d and %d pages made %.0f and %.0f allocations: they grow with the pages",
			pages, pages/2, all, half)
	}
}

// One scanner re-aimed across k files (Reset) returns what k fresh scans
// return, lent or not, filtered or not, charges each file's meter what
// Scan would, and allocates no more for k files than for two. A tuple
// kept past the re-aim of a lent scanner no longer reads as it did; its
// string does.
func TestResetScannerMatchesFreshScans(t *testing.T) {
	bp, _ := newTestPool(256)
	const k, n = 8, 1500
	files := make([]*HeapFile, k)
	meters := make([]*CostMeter, k)
	for f := range files {
		meters[f] = NewCostMeter(DefaultCostWeights())
		files[f] = NewTempFile(bp, meters[f])
		for i := f * n; i < (f+1)*n-f*100; i++ { // files of unequal sizes
			if _, err := files[f].Append(row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if files[k-1].NumPages() < 3 {
		t.Fatalf("%d pages a file: too few to span pages", files[k-1].NumPages())
	}
	even := func(tup types.Tuple) (bool, error) { return tup[0].Int()%2 == 0, nil }
	// read drains s into copies of its tuples, clearing what it returned
	// when the scan is not lent, as Reset's caller does, and returns the
	// copies and the page reads charged to meter.
	read := func(s *HeapScanner, meter *CostMeter) ([]scanned, int64) {
		bp.EvictAll()
		before := meter.Snapshot().PageReads
		var got []scanned
		var held []types.Tuple
		for s.Next() {
			got = append(got, scanned{s.RID(), slices.Clone(s.Tuple())})
			held = append(held, s.Tuple())
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		if !s.lent {
			for _, tup := range held {
				clear(tup)
			}
		}
		return got, meter.Snapshot().PageReads - before
	}
	for _, lend := range []bool{false, true} {
		for _, filtered := range []bool{false, true} {
			var s HeapScanner
			if lend {
				s.Lend()
			}
			if filtered {
				s.WithFilter(filterOn([]int{0}, even))
			}
			for f, h := range files {
				fresh := h.Scan()
				if lend {
					fresh.Lend()
				}
				if filtered {
					fresh.WithFilter(filterOn([]int{0}, even))
				}
				want, wantReads := read(fresh, meters[f])
				got, reads := read(s.Reset(h), meters[f])
				if err := sameScan(got, want); err != nil {
					t.Fatalf("lent %t, filtered %t, file %d: re-aimed scan: %v", lend, filtered, f, err)
				}
				if reads != wantReads || reads != int64(h.NumPages()) {
					t.Errorf("lent %t, filtered %t, file %d: re-aimed scan charged %d reads, a fresh one %d, of %d pages",
						lend, filtered, f, reads, wantReads, h.NumPages())
				}
			}
		}
	}

	var s HeapScanner
	s.Lend()
	s.Reset(files[0]).Next()
	kept, name := s.Tuple(), s.Tuple()[1]
	if !kept.Equal(row(0)) {
		t.Fatalf("the first tuple reads %v", kept)
	}
	s.Reset(files[1])
	for s.Next() {
	}
	if kept.Equal(row(0)) {
		t.Errorf("a lent tuple kept past a Reset still reads %v: its block was not recycled", kept)
	}
	if name.Str() != "row-0" {
		t.Errorf("a lent tuple's string reads %q after a Reset: string blocks are not recycled", name.Str())
	}

	// The key column alone, so that only value blocks are allocated, of
	// files of one size.
	same := make([]*HeapFile, k)
	for f := range same {
		same[f] = NewTempFile(bp, meters[f])
		for i := 0; i < n; i++ {
			if _, err := same[f].Append(row(f*n + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := make([]types.Tuple, 0, n)
	allocs := func(files []*HeapFile, lend bool) float64 {
		return testing.AllocsPerRun(5, func() {
			s := new(HeapScanner).WithColumns([]int{0})
			if lend {
				s.Lend()
			}
			for _, h := range files {
				s.Reset(h)
				for s.Next() {
					held = append(held, s.Tuple())
				}
				if s.Err() != nil {
					t.Fatal(s.Err())
				}
				for _, tup := range held {
					clear(tup)
				}
				held = held[:0]
			}
		})
	}
	for _, lend := range []bool{false, true} {
		if two, all := allocs(same[:2], lend), allocs(same, lend); all > two {
			t.Errorf("lent %t: a scanner re-aimed across 2 and %d files made %.0f and %.0f allocations: they grow with the files",
				lend, k, two, all)
		}
	}
}

func TestScanFilterAndExamineErrors(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	for i := 0; i < 1000; i++ {
		h.Append(row(i))
	}
	boom := errors.New("boom")
	for name, cols := range map[string][]int{"columns": {0}, "whole tuple": nil} {
		examined, returned := 0, 0
		s := h.Scan().OnExamine(func() error { examined++; return nil }).
			WithFilter(filterOn(cols, func(tup types.Tuple) (bool, error) {
				if tup[0].Int() == 500 {
					return false, boom
				}
				return tup[0].Int()%2 == 0, nil
			}))
		for s.Next() {
			returned++
		}
		// Rows 0..499 pass through, row 500 is examined and then fails.
		if s.Err() != boom || returned != 250 || examined != 501 {
			t.Errorf("%s: err %v after %d returned, %d examined; want boom, 250, 501", name, s.Err(), returned, examined)
		}
		if s.Next() {
			t.Errorf("%s: Next succeeded after an error", name)
		}
	}

	examined := 0
	s := h.Scan().OnExamine(func() error {
		if examined++; examined == 300 {
			return boom
		}
		return nil
	})
	n := 0
	for s.Next() {
		n++
	}
	if s.Err() != boom || n != 299 {
		t.Errorf("examine error: err %v after %d tuples, want boom after 299", s.Err(), n)
	}

	// A record narrower than a column the filter reads is not a record
	// that does not parse: its shape fits, is that narrow, and the
	// failure is the filter's, so the record is examined, what preceded
	// it is served, and then the scan fails — where a projection the
	// record is too narrow for (TestProjectedScanSurfacesDecodeErrors)
	// fails before the record is examined.
	h = NewHeapFile(bp)
	for i := 0; i < 40; i++ {
		h.Append(row(i))
	}
	if err := appendRaw(h, types.EncodeTuple(nil, types.Tuple{types.NewInt(40)})); err != nil {
		t.Fatal(err)
	}
	h.Append(row(41))
	narrow := errors.New("column ordinal 1 out of range")
	examined, n = 0, 0
	s = h.Scan().WithColumns([]int{0}).OnExamine(func() error { examined++; return nil }).
		WithFilter(filterOn([]int{1}, func(tup types.Tuple) (bool, error) {
			if len(tup) < 2 {
				return false, narrow
			}
			return tup[1].Str() != "row-7", nil
		}))
	for s.Next() {
		n++
	}
	if s.Err() != narrow || n != 39 || examined != 41 {
		t.Errorf("narrow record: err %v after %d returned, %d examined; want the filter's error, 39, 41", s.Err(), n, examined)
	}
}

// The examine hook runs once per visible record, in storage order, the
// record's own call last before it is returned — whatever share of the
// records the filter passes — and an error from the k-th call ends the
// scan there: the batch holds only the records that passed, the cadence
// is that of a scan that hands out every record.
func TestScanExamineCadence(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := h.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := NewTxnManager()
	tx := m.Begin() // every 11th row invisible: deleted by a transaction in flight
	for s := h.Scan(); s.Next(); {
		if s.Tuple()[0].Int()%11 == 0 {
			if err := tx.DeleteTuple(h, s.RID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tx.Snapshot()
	defer tx.Abort()
	visible := func(i int) int { return i - (i+10)/11 } // visible rows before row i
	boom := errors.New("boom")
	for name, every := range map[string]int{"0%": 0, "2%": 50, "100%": 1} {
		for _, failAt := range []int{0, 1, 777, visible(n)} {
			examined, returned := 0, 0
			s := h.Scan().WithSnapshot(snap).OnExamine(func() error {
				if examined++; examined == failAt {
					return boom
				}
				return nil
			}).WithFilter(filterOn([]int{0}, func(tup types.Tuple) (bool, error) {
				return every > 0 && tup[0].Int()%int64(every) == int64(1%every), nil
			}))
			for s.Next() {
				i := int(s.Tuple()[0].Int())
				if want := visible(i) + 1; examined != want {
					t.Fatalf("%s: row %d returned after %d examine calls, want %d", name, i, examined, want)
				}
				returned++
			}
			wantExamined, wantErr := visible(n), error(nil)
			if failAt > 0 {
				wantExamined, wantErr = failAt, boom
			}
			wantReturned := 0 // passers among the visible records examined without error
			for i := 0; i < n && every > 0; i++ {
				if i%11 != 0 && i%every == 1%every && (failAt == 0 || visible(i)+1 < failAt) {
					wantReturned++
				}
			}
			if s.Err() != wantErr || examined != wantExamined || returned != wantReturned {
				t.Errorf("%s, failing call %d: err %v, %d examined, %d returned; want %v, %d, %d",
					name, failAt, s.Err(), examined, returned, wantErr, wantExamined, wantReturned)
			}
		}
	}
}

// Two partition scanners over one pool much smaller than the file, each
// on its own goroutine with its own meter: every miss takes the pool's
// lock and lends a page another scanner's miss may evict. Run under
// -race; the two partitions together are the file and their meters hold
// every read.
func TestPartitionScannersShareAPool(t *testing.T) {
	bp, shared := newTestPool(4)
	h := NewStampedHeapFile(bp)
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := h.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	bp.EvictAll()
	before := shared.Snapshot()
	var wg sync.WaitGroup
	var sums, reads [2]int64
	for part := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meter := shared.Tributary()
			s := h.ScanPartition(part, 2, meter).WithFilter(filterOn([]int{0}, func(tup types.Tuple) (bool, error) {
				return tup[0].Int()%3 != 0, nil
			}))
			for s.Next() {
				sums[part] += s.Tuple()[0].Int()
			}
			if s.Err() != nil {
				t.Error(s.Err())
			}
			reads[part] = meter.Snapshot().PageReads
		}()
	}
	wg.Wait()
	want := int64(0)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			want += int64(i)
		}
	}
	if sums[0]+sums[1] != want {
		t.Errorf("the partitions summed to %d, want %d", sums[0]+sums[1], want)
	}
	if got := reads[0] + reads[1]; got != int64(h.NumPages()) {
		t.Errorf("the scanners' meters hold %d reads of %d pages", got, h.NumPages())
	}
	if d := shared.Snapshot().Sub(before); d.PageReads != 0 {
		t.Errorf("%d reads reached the shared meter before any flush", d.PageReads)
	}
}

// No pin may outlive a Next: with many scanners open and paused at
// arbitrary positions, EvictAll must be able to empty the pool, and a
// pool far smaller than the number of open scanners must suffice.
func TestScanHoldsNoPinBetweenNext(t *testing.T) {
	bp, _ := newTestPool(4)
	const files = 128
	scanners := make([]*HeapScanner, files)
	for i := range scanners {
		h := NewHeapFile(bp)
		for j := 0; j < 400; j++ {
			if _, err := h.Append(row(j)); err != nil {
				t.Fatal(err)
			}
		}
		scanners[i] = h.Scan()
	}
	total := 0
	for open := files; open > 0; {
		open = 0
		for _, s := range scanners {
			if s.Next() {
				open++
				total++
			} else if s.Err() != nil {
				t.Fatal(s.Err())
			}
			if total%97 == 0 {
				bp.EvictAll()
				if len(bp.frames) != 0 {
					t.Fatalf("%d frames still pinned between Next calls", len(bp.frames))
				}
			}
		}
	}
	if total != files*400 {
		t.Errorf("merged %d tuples, want %d", total, files*400)
	}
}

// A scan allocates per page (a block of values, the batch), never per
// tuple: a per-tuple allocation creeping back in fails here.
func TestScanAllocatesPerPageNotPerTuple(t *testing.T) {
	bp, _ := newTestPool(64)
	h := NewStampedHeapFile(bp)
	const n = 20000
	for i := 0; i < n; i++ {
		tup := types.Tuple{types.NewInt(int64(i)), types.NewFloat(1.5), types.NewDate(9000), types.NewInt(7)}
		if _, err := h.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	pages := h.NumPages()
	if n < 50*pages {
		t.Fatalf("%d tuples on %d pages: too few per page to tell the two apart", n, pages)
	}
	snap := NewTxnManager().LatestSnapshot()
	for name, filter := range map[string]func(types.Tuple) (bool, error){
		"unfiltered": nil,
		"filtered":   func(tup types.Tuple) (bool, error) { return tup[0].Int()%50 == 0, nil },
	} {
		allocs := testing.AllocsPerRun(5, func() {
			s := h.Scan().WithSnapshot(snap)
			if filter != nil {
				s.WithFilter(filterOn([]int{0}, filter))
			}
			for s.Next() {
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
		})
		if allocs > float64(3*pages) {
			t.Errorf("%s scan of %d tuples on %d pages made %.0f allocations", name, n, pages, allocs)
		}
	}
}

// A miss on a full pool recycles the victim's frame and list element and
// borrows the disk's page: it allocates nothing and copies nothing.
// Scanning a table several times the pool's size allocates what scanning
// it from a pool that holds it all does — a block of values per arena
// block, nothing per page read — and under a filter that passes nothing,
// next to nothing at all.
func TestScanOfTableLargerThanPoolAllocatesNothingPerMiss(t *testing.T) {
	scanAllocs := func(frames int) (allocs, rejecting float64, pages int, misses int64) {
		bp, m := newTestPool(frames)
		h := NewStampedHeapFile(bp)
		// Page ids past 255: the runtime boxes smaller integers for free.
		for i := 0; i < 100000; i++ {
			tup := types.Tuple{types.NewInt(int64(i)), types.NewFloat(1.5), types.NewDate(9000), types.NewInt(7)}
			if _, err := h.Append(tup); err != nil {
				t.Fatal(err)
			}
		}
		snap := NewTxnManager().LatestSnapshot()
		scan := func(filter RecordFilter) func() {
			return func() {
				s := h.Scan().WithSnapshot(snap)
				if filter != nil {
					s.WithFilter(filter)
				}
				for s.Next() {
				}
				if s.Err() != nil {
					t.Fatal(s.Err())
				}
			}
		}
		scan(nil)() // the pool is full (or the table resident) from here on
		before := m.Snapshot().PageReads
		allocs = testing.AllocsPerRun(5, scan(nil))
		misses = (m.Snapshot().PageReads - before) / 6
		rejecting = testing.AllocsPerRun(5, scan(lessThan{0, types.NewInt(-1)}))
		return allocs, rejecting, h.NumPages(), misses
	}
	resident, _, pages, misses := scanAllocs(1024)
	if misses != 0 {
		t.Fatalf("a pool of 1024 frames missed %d times a scan of %d pages", misses, pages)
	}
	thrashing, rejecting, _, misses := scanAllocs(8)
	if misses != int64(pages) {
		t.Fatalf("a pool of 8 frames missed %d times a scan of %d pages, want every page", misses, pages)
	}
	if thrashing > resident+float64(pages)/10 {
		t.Errorf("scanning %d pages made %.0f allocations through a pool of 8 frames, %.0f when resident: a miss allocates",
			pages, thrashing, resident)
	}
	if rejecting > 4 {
		t.Errorf("a scan of %d pages, every one a miss, that returns nothing made %.0f allocations", pages, rejecting)
	}
}

// Strings are carved like values: a projected scan that emits a string
// column, under a filter that reads another, copies their bytes into
// blocks — allocations per page, not one object per string emitted or
// tested.
func TestScanAllocatesPerPageNotPerString(t *testing.T) {
	bp, _ := newTestPool(256)
	h := NewStampedHeapFile(bp)
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := h.Append(lineitemRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages := h.NumPages()
	if n < 30*pages {
		t.Fatalf("%d tuples on %d pages: too few per page to tell the two apart", n, pages)
	}
	snap := NewTxnManager().LatestSnapshot()
	emitted := 0
	allocs := testing.AllocsPerRun(5, func() {
		emitted = 0
		// l_shipinstruct and l_comment out, l_shipmode tested.
		s := h.Scan().WithSnapshot(snap).WithColumns([]int{0, 13, 15}).
			WithFilter(filterOn([]int{14}, func(tup types.Tuple) (bool, error) { return tup[14].Str() == "TRUCK", nil }))
		for s.Next() {
			emitted++
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	})
	if emitted != n {
		t.Fatalf("scan emitted %d of %d rows", emitted, n)
	}
	// A block of values a page, and a 16 KiB block of string bytes
	// every few 8 KiB pages.
	if allocs > float64(2*pages) {
		t.Errorf("scan emitting %d strings from %d pages made %.0f allocations", 2*n, pages, allocs)
	}
}

func TestSweepReclaimsSpaceWithoutReusingSlots(t *testing.T) {
	bp, _ := newTestPool(64)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	r := rand.New(rand.NewSource(3))
	var live []RID
	for i := 0; i < 4000; i++ {
		rid, err := h.Append(wideRow(r, i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rid)
	}
	start := h.NumPages()
	var stale []RID
	for txn := 0; txn < 2000; txn++ {
		tx := m.Begin()
		var mine []RID
		for i := 0; i < 4; i++ {
			rid, err := tx.InsertTuple(h, wideRow(r, 10000+4*txn+i))
			if err != nil {
				t.Fatal(err)
			}
			mine = append(mine, rid)
		}
		// Update one old row: delete its version, insert the new one.
		k := r.Intn(len(live))
		if err := tx.DeleteTuple(h, live[k]); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, live[k])
		rid, err := tx.InsertTuple(h, wideRow(r, 20000+txn))
		if err != nil {
			t.Fatal(err)
		}
		live[k] = rid
		for _, rid := range mine {
			if err := tx.DeleteTuple(h, rid); err != nil {
				t.Fatal(err)
			}
			stale = append(stale, rid)
		}
		tx.Commit()
		if txn%16 == 15 {
			if _, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.NumPages(); got > start+8 {
		t.Errorf("heap grew from %d to %d pages under steady update traffic", start, got)
	}
	if h.NumTuples() != int64(len(live)) {
		t.Errorf("NumTuples = %d, want %d", h.NumTuples(), len(live))
	}

	// Refill the freed space, then look the swept versions up again: an
	// index entry left behind must find nothing, never a newer record.
	for i := 0; i < 500; i++ {
		if _, err := h.Append(wideRow(r, 50000+i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.LatestSnapshot()
	for _, rid := range stale {
		if tup, ok, err := h.Fetcher(nil).FetchVisible(rid, snap); err != nil || ok {
			t.Fatalf("swept %v resolves to %v (ok=%v, err=%v)", rid, tup, ok, err)
		}
	}
	want := fetchAll(t, h, snap, 0, 1)
	if len(want) != len(live)+500 {
		t.Errorf("%d visible rows, want %d", len(want), len(live)+500)
	}
	if err := sameScan(drainScan(t, h.Scan().WithSnapshot(snap)), want); err != nil {
		t.Error(err)
	}
}

// The undo of an aborted insert deletes slots without any version dying;
// the next Sweep must still find the holes, or every rolled-back bulk
// insert would leak its pages for good.
func TestSweepReclaimsAbortedInserts(t *testing.T) {
	bp, _ := newTestPool(64)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		h.Append(wideRow(r, i))
	}
	start := h.NumPages()
	for round := 0; round < 10; round++ {
		tx := m.Begin()
		for i := 0; i < 1000; i++ {
			if _, err := tx.InsertTuple(h, wideRow(r, 1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if n, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil || n != 0 {
			t.Fatalf("Sweep removed %d versions (%v), want none: nothing died", n, err)
		}
	}
	one := start + (start*1000+499)/500 // the file with one round's inserts on top
	if got := h.NumPages(); got > one+2 {
		t.Errorf("ten aborted rounds of inserts left %d pages; the load is %d, one round on top about %d", got, start, one)
	}
	if got := countVisible(t, h, m.LatestSnapshot()); got != 500 {
		t.Errorf("%d rows visible, want the 500 loaded", got)
	}
}

// project returns the values of tup at cols (every value for nil).
func project(tup types.Tuple, cols []int) types.Tuple {
	if cols == nil {
		return tup
	}
	out := make(types.Tuple, len(cols))
	for i, c := range cols {
		out[i] = tup[c]
	}
	return out
}

// A projected scan returns, record for record, the projection of what
// the unprojected scan returns — on stamped and unstamped heaps, for
// full and partitioned scans, with no filter, a filter on columns inside
// and outside the projection, and a filter handed whole tuples — and
// examines the same tuples on the way. Every tuple has exactly len(cols)
// values.
func TestScanProjection(t *testing.T) {
	pass := func(tup types.Tuple) (bool, error) {
		return !tup[0].IsNull() && tup[0].Int()%3 != 0 && !tup[3].IsNull(), nil
	}
	type filter struct {
		name string
		cols []int
		fn   func(types.Tuple) (bool, error)
	}
	filters := []filter{{name: "none"}, {"columns", []int{0, 3}, pass}, {"whole tuple", nil, pass}}
	projections := [][]int{{0}, {2}, {4}, {1, 3}, {2, 4}, {0, 1, 2, 3, 4}}

	r := rand.New(rand.NewSource(11))
	bp, _ := newTestPool(16)
	stamped, snaps, done := churnedHeap(t, r, bp)
	defer done()
	plain := NewHeapFile(bp)
	for i := 0; i < 700; i++ {
		if _, err := plain.Append(wideRow(r, i)); err != nil {
			t.Fatal(err)
		}
	}

	type examinedScan struct {
		rows     []scanned
		examined int
	}
	run := func(s *HeapScanner) examinedScan {
		var out examinedScan
		s.OnExamine(func() error { out.examined++; return nil })
		out.rows = drainScan(t, s)
		return out
	}
	check := func(label string, scan func() *HeapScanner) {
		t.Helper()
		for _, f := range filters {
			with := func(s *HeapScanner) *HeapScanner {
				if f.fn != nil {
					s.WithFilter(filterOn(f.cols, f.fn))
				}
				return s
			}
			want := run(with(scan()))
			for _, cols := range projections {
				got := run(with(scan().WithColumns(cols)))
				if got.examined != want.examined || len(got.rows) != len(want.rows) {
					t.Fatalf("%s, filter %s, cols %v: %d rows of %d examined, want %d of %d",
						label, f.name, cols, len(got.rows), got.examined, len(want.rows), want.examined)
				}
				for i, g := range got.rows {
					w := want.rows[i]
					if len(g.tup) != len(cols) || cap(g.tup) != len(cols) {
						t.Fatalf("%s, cols %v: tuple of %d values (cap %d)", label, cols, len(g.tup), cap(g.tup))
					}
					if g.rid != w.rid || !g.tup.Equal(project(w.tup, cols)) {
						t.Fatalf("%s, filter %s, cols %v, row %d: %v %v, want %v %v",
							label, f.name, cols, i, g.rid, g.tup, w.rid, project(w.tup, cols))
					}
				}
			}
		}
	}
	for si, snap := range snaps {
		check(fmt.Sprintf("stamped snapshot %d", si), func() *HeapScanner { return stamped.Scan().WithSnapshot(snap) })
		for part := 0; part < 3; part++ {
			check(fmt.Sprintf("stamped snapshot %d partition %d/3", si, part),
				func() *HeapScanner { return stamped.ScanPartition(part, 3, nil).WithSnapshot(snap) })
		}
	}
	check("unstamped", plain.Scan)
	check("unstamped partition 1/2", func() *HeapScanner { return plain.ScanPartition(1, 2, nil) })
}

// A fetcher agrees with a scanner carrying the same filter and
// projection on every slot: the tuple if the scan returned that RID,
// ok=false if it did not.
func TestFetcherMatchesScanner(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	bp, _ := newTestPool(16)
	h, snaps, done := churnedHeap(t, r, bp)
	defer done()
	pass := func(tup types.Tuple) (bool, error) { return !tup[3].IsNull() && tup[3].Days() < 10000, nil }
	for _, cols := range [][]int{nil, {0, 2}, {4}} {
		for si, snap := range snaps {
			want := map[RID]types.Tuple{}
			for _, s := range drainScan(t, h.Scan().WithSnapshot(snap).WithFilter(filterOn([]int{3}, pass)).WithColumns(cols)) {
				want[s.rid] = s.tup
			}
			f := h.Fetcher(nil).WithFilter(filterOn([]int{3}, pass)).WithColumns(cols)
			found := 0
			for _, s := range fetchAll(t, h, nil, 0, 1) { // every undeleted slot, visible to snap or not
				tup, ok, err := f.FetchVisible(s.rid, snap)
				if err != nil {
					t.Fatal(err)
				}
				w, in := want[s.rid]
				if ok != in || (ok && !tup.Equal(w)) {
					t.Fatalf("cols %v snapshot %d, %v: fetched %v (ok=%v), scan has %v (ok=%v)", cols, si, s.rid, tup, ok, w, in)
				}
				if ok {
					found++
				}
			}
			if snap == nil && found != len(want) {
				t.Errorf("cols %v: fetched %d of the scan's %d tuples", cols, found, len(want))
			}
		}
	}
	boom := errors.New("boom")
	f := h.Fetcher(nil).WithFilter(filterOn([]int{0}, func(types.Tuple) (bool, error) { return true, boom }))
	if _, ok, err := f.FetchVisible(fetchAll(t, h, nil, 0, 1)[0].rid, nil); err != boom || ok {
		t.Errorf("filter error: ok=%v err=%v, want boom", ok, err)
	}
}

// A projected scan of a table that fits one page carves its tuples from
// a block sized for that page's tuples at the projected width, not for a
// full block and not at the table's width: the whole scan allocates less
// than the table's width would.
func TestProjectedScanBlockFitsSmallTable(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	for i := 0; i < 5; i++ {
		if _, err := h.Append(lineitemRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]types.Tuple, 0, 5)
	scan := func() {
		got = got[:0]
		s := h.Scan().WithColumns([]int{4, 5, 6, 10})
		for s.Next() {
			got = append(got, s.Tuple())
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	}
	scan() // the page is in the pool from here on
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scan()
	runtime.ReadMemStats(&after)
	for i, tup := range got {
		if len(tup) != 4 || !tup.Equal(project(lineitemRow(i), []int{4, 5, 6, 10})) {
			t.Fatalf("row %d: %v", i, tup)
		}
	}
	// 5 tuples of 4 values, the scanner and its one-page batch.
	if got, limit := after.TotalAlloc-before.TotalAlloc, 5*uint64(len(lineitemRow(0)))*uint64(unsafe.Sizeof(types.Value{})); got >= limit {
		t.Errorf("a 5-row scan at 4 columns allocated %d bytes, the unprojected tuples alone would take %d", got, limit)
	}
}

// A record that does not decode under the projection — truncated, or
// with fewer columns than the projection names — ends the scan with an
// error, after the tuples that preceded it on the page.
func TestProjectedScanSurfacesDecodeErrors(t *testing.T) {
	for name, damage := range map[string]func(rec []byte) []byte{
		"truncated":   func(rec []byte) []byte { return rec[:len(rec)-6] },
		"too narrow":  func([]byte) []byte { return types.EncodeTuple(nil, types.Tuple{types.NewInt(1)}) },
		"bad header":  func(rec []byte) []byte { return rec[:1] },
		"beyond want": nil, // damage past the last wanted column is not the projection's to find
	} {
		bp, _ := newTestPool(8)
		h := NewHeapFile(bp)
		for i := 0; i < 10; i++ {
			if _, err := h.Append(lineitemRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		bad := types.EncodeTuple(nil, lineitemRow(10))
		cols := []int{1, 15}
		if damage != nil {
			bad = damage(bad)
		} else {
			bad, cols = bad[:len(bad)-6], []int{0, 9}
		}
		if err := appendRaw(h, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Append(lineitemRow(11)); err != nil {
			t.Fatal(err)
		}
		s := h.Scan().WithColumns(cols)
		n := 0
		for s.Next() {
			if !s.Tuple().Equal(project(lineitemRow(n), cols)) {
				t.Fatalf("%s: row %d reads %v", name, n, s.Tuple())
			}
			n++
		}
		switch {
		case damage == nil:
			if s.Err() != nil || n != 12 {
				t.Errorf("%s: %d rows, err %v; want all 12", name, n, s.Err())
			}
		case s.Err() == nil || n != 10:
			t.Errorf("%s: %d rows, err %v; want the 10 before the damage, then an error", name, n, s.Err())
		}
	}
}

// appendRaw stores rec as the next record of an unstamped heap's tail
// page, bypassing the tuple encoder.
func appendRaw(h *HeapFile, rec []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	id, buf, err := h.pageWithRoomLocked(len(rec))
	if err != nil {
		return err
	}
	if _, err = LoadSlottedPage(buf).Insert(rec); err == nil {
		h.tuples++
	}
	h.pool.UnpinDirty(id, h.meter)
	return err
}
