package storage

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/types"
)

func TestHeapFileAppendScan(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := h.Append(types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("row-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumTuples() != n {
		t.Errorf("NumTuples = %d", h.NumTuples())
	}
	if h.NumPages() < 2 {
		t.Errorf("NumPages = %d, want multi-page file", h.NumPages())
	}
	s := h.Scan()
	i := 0
	for s.Next() {
		if got := s.Tuple()[0].Int(); got != int64(i) {
			t.Fatalf("tuple %d has key %d", i, got)
		}
		i++
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if i != n {
		t.Errorf("scanned %d tuples, want %d", i, n)
	}
}

func TestHeapFileFetchByRID(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	rids := make([]RID, 0, 100)
	for i := 0; i < 100; i++ {
		rid, err := h.Append(types.Tuple{types.NewInt(int64(i * 7))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		tup, ok, err := h.Fetcher(nil).FetchVisible(rid, nil)
		if err != nil || !ok {
			t.Fatalf("FetchVisible(%v) = %v, %v", rid, ok, err)
		}
		if tup[0].Int() != int64(i*7) {
			t.Errorf("FetchVisible(%v) = %v", rid, tup)
		}
	}
}

func TestHeapScanChargesOneReadPerPage(t *testing.T) {
	bp, m := newTestPool(2) // tiny pool so scans miss
	h := NewHeapFile(bp)
	for i := 0; i < 3000; i++ {
		h.Append(types.Tuple{types.NewInt(int64(i)), types.NewString("padding-padding-padding")})
	}
	bp.FlushAll()
	// Evict everything to make the scan cold.
	for _, id := range h.pages {
		bp.Evict(id)
	}
	before := m.Snapshot()
	s := h.Scan()
	for s.Next() {
	}
	d := m.Snapshot().Sub(before)
	if d.PageReads != int64(h.NumPages()) {
		t.Errorf("cold scan charged %d reads for %d pages", d.PageReads, h.NumPages())
	}
}

func TestTempFileDrop(t *testing.T) {
	bp, _ := newTestPool(8)
	tf := NewTempFile(bp, bp.Disk().Meter())
	for i := 0; i < 1000; i++ {
		tf.Append(types.Tuple{types.NewInt(int64(i))})
	}
	disk := bp.Disk()
	before := disk.NumPages()
	if err := tf.Drop(); err != nil {
		t.Fatal(err)
	}
	if disk.NumPages() >= before {
		t.Errorf("Drop freed no pages: %d -> %d", before, disk.NumPages())
	}
	if tf.NumTuples() != 0 {
		t.Error("NumTuples after Drop != 0")
	}

	// Dropping a non-temp file is a no-op.
	h := NewHeapFile(bp)
	h.Append(types.Tuple{types.NewInt(1)})
	pages := disk.NumPages()
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if disk.NumPages() != pages {
		t.Error("Drop of base file freed pages")
	}
}

// Dropping a temp file with a pinned page fails before that page is
// freed: the reader's bytes stay as they were, and no Allocate is handed
// their memory.
func TestTempFileDropStopsAtAPinnedPage(t *testing.T) {
	bp, _ := newTestPool(8)
	tf := NewTempFile(bp, bp.Disk().Meter())
	for i := 0; tf.NumPages() < 3; i++ {
		if _, err := tf.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	pinned := tf.pages[1]
	buf, err := bp.Pin(pinned)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(buf)
	if err := tf.Drop(); err == nil {
		t.Fatal("Drop of a temp file with a pinned page succeeded")
	}
	for i := 0; i < 8; i++ {
		if _, page := bp.Disk().Allocate(); &page[0] == &buf[0] {
			t.Fatal("a pinned page's memory was handed to Allocate")
		}
	}
	if got, err := bp.Disk().page(pinned); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the pinned page after a failed Drop: %v, changed %v", err, !bytes.Equal(got, want))
	}
	bp.Unpin(pinned)
	if err := tf.Drop(); err != nil {
		t.Fatalf("Drop once the pin is gone: %v", err)
	}
}

func TestHeapFileOversizeTuple(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	big := types.Tuple{types.NewString(string(make([]byte, PageSize)))}
	if _, err := h.Append(big); err == nil {
		t.Error("oversize append succeeded")
	}
}

func TestHeapFileByteSize(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewHeapFile(bp)
	tup := types.Tuple{types.NewInt(1), types.NewString("abc")}
	h.Append(tup)
	h.Append(tup)
	want := int64(2 * types.EncodedSize(tup))
	if h.ByteSize() != want {
		t.Errorf("ByteSize = %d, want %d", h.ByteSize(), want)
	}
}
