package storage

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
)

func row(i int) types.Tuple {
	return types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("row-%d", i))}
}

// countVisible scans h under snap and returns how many tuples are seen.
func countVisible(t *testing.T, h *HeapFile, snap *TxnSnapshot) int {
	t.Helper()
	s := h.Scan().WithSnapshot(snap)
	n := 0
	for s.Next() {
		n++
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return n
}

func TestTxnSnapshotVisibility(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()

	// Frozen bulk load: visible to everyone, including pre-existing
	// snapshots.
	for i := 0; i < 3; i++ {
		if _, err := h.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}

	before := m.BeginRead()
	defer before.End()

	w := m.Begin()
	if _, err := w.InsertTuple(h, row(100)); err != nil {
		t.Fatal(err)
	}

	// Uncommitted insert: visible to the writer, invisible to others.
	if got := countVisible(t, h, w.Snapshot()); got != 4 {
		t.Errorf("writer sees %d rows, want 4", got)
	}
	other := m.BeginRead()
	if got := countVisible(t, h, other.Snapshot()); got != 3 {
		t.Errorf("concurrent reader sees %d rows, want 3", got)
	}
	other.End()

	w.Commit()

	// Snapshot taken before the writer began still excludes it.
	if got := countVisible(t, h, before.Snapshot()); got != 3 {
		t.Errorf("old snapshot sees %d rows, want 3", got)
	}
	after := m.BeginRead()
	if got := countVisible(t, h, after.Snapshot()); got != 4 {
		t.Errorf("new snapshot sees %d rows, want 4", got)
	}
	after.End()
}

func TestTxnDeleteVisibilityAndConflict(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	rid, err := h.Append(row(1))
	if err != nil {
		t.Fatal(err)
	}

	w1 := m.Begin()
	if err := w1.DeleteTuple(h, rid); err != nil {
		t.Fatal(err)
	}
	// Deleter no longer sees the row; a concurrent reader still does.
	if got := countVisible(t, h, w1.Snapshot()); got != 0 {
		t.Errorf("deleter sees %d rows, want 0", got)
	}
	rd := m.BeginRead()
	if got := countVisible(t, h, rd.Snapshot()); got != 1 {
		t.Errorf("reader sees %d rows, want 1", got)
	}
	rd.End()

	// First-writer-wins: a second deleter conflicts immediately.
	w2 := m.Begin()
	if err := w2.DeleteTuple(h, rid); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("second delete: got %v, want ErrWriteConflict", err)
	}
	w2.Abort()
	w1.Commit()

	after := m.BeginRead()
	if got := countVisible(t, h, after.Snapshot()); got != 0 {
		t.Errorf("post-commit snapshot sees %d rows, want 0", got)
	}
	after.End()
}

func TestTxnAbortUndo(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	rid, err := h.Append(row(1))
	if err != nil {
		t.Fatal(err)
	}

	w := m.Begin()
	if _, err := w.InsertTuple(h, row(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteTuple(h, rid); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}

	// Physical undo: the inserted version is gone, the delete stamp is
	// cleared, and a later writer can delete the survivor.
	after := m.BeginRead()
	if got := countVisible(t, h, after.Snapshot()); got != 1 {
		t.Errorf("post-abort snapshot sees %d rows, want 1", got)
	}
	after.End()
	w2 := m.Begin()
	if err := w2.DeleteTuple(h, rid); err != nil {
		t.Errorf("delete after aborted deleter: %v", err)
	}
	w2.Commit()
}

func TestSweepRespectsHorizon(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	var rids []RID
	for i := 0; i < 4; i++ {
		rid, err := h.Append(row(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	// A reader whose snapshot predates the deletes pins the horizon.
	pin := m.BeginRead()
	w := m.Begin()
	for _, rid := range rids[:2] {
		if err := w.DeleteTuple(h, rid); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()

	if n, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil || n != 0 {
		t.Errorf("sweep under pinned horizon removed %d (err %v), want 0", n, err)
	}
	if got := countVisible(t, h, pin.Snapshot()); got != 4 {
		t.Errorf("pinned reader sees %d rows, want 4", got)
	}
	pin.End()

	// Horizon advances once the reader ends; dead versions reclaim.
	if n, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil || n != 2 {
		t.Errorf("sweep removed %d (err %v), want 2", n, err)
	}
	if dead, err := h.DeadVersions(); err != nil || dead != 0 {
		t.Errorf("DeadVersions = %d (err %v) after sweep, want 0", dead, err)
	}
	after := m.BeginRead()
	if got := countVisible(t, h, after.Snapshot()); got != 2 {
		t.Errorf("post-sweep snapshot sees %d rows, want 2", got)
	}
	after.End()
}

// Sweep reads only the pages a delete stamp or an undone insert touched
// since they were last swept clean: with nothing to remove it reads no
// page, and a page whose dead version the horizon protects is read again
// until the version goes.
func TestSweepVisitsOnlyTouchedPages(t *testing.T) {
	bp, meter := newTestPool(4)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	var rids []RID
	for i := 0; h.NumPages() < 12; i++ {
		rid, err := h.Append(types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("%0400d", i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	sweep := func(wantRemoved, wantReads int64) {
		t.Helper()
		bp.EvictAll()
		before := meter.Snapshot().PageReads
		if n, err := h.Sweep(m.Horizon(), m.IsActive, nil, nil); err != nil || n != wantRemoved {
			t.Fatalf("sweep removed %d (err %v), want %d", n, err, wantRemoved)
		}
		if reads := meter.Snapshot().PageReads - before; reads != wantReads {
			t.Errorf("sweep read %d pages, want %d", reads, wantReads)
		}
	}
	sweep(0, 0)

	pin := m.BeginRead()
	w := m.Begin()
	if err := w.DeleteTuple(h, rids[0]); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	sweep(0, 1) // the horizon protects the version
	sweep(0, 1)
	pin.End()
	sweep(1, 1)
	sweep(0, 0)

	// An aborted insert's hole is closed once, then the page is clean.
	w = m.Begin()
	if _, err := w.InsertTuple(h, row(-1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	sweep(0, 1)
	sweep(0, 0)
	if got := countVisible(t, h, m.LatestSnapshot()); got != len(rids)-1 {
		t.Errorf("%d rows visible, want %d", got, len(rids)-1)
	}
}

func TestFetchVisibleSkipsInvisible(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()

	w := m.Begin()
	rid, err := w.InsertTuple(h, row(7))
	if err != nil {
		t.Fatal(err)
	}
	rd := m.BeginRead()
	if _, ok, err := h.Fetcher(nil).FetchVisible(rid, rd.Snapshot()); err != nil || ok {
		t.Errorf("uncommitted version: visible=%t err=%v, want invisible", ok, err)
	}
	rd.End()
	if tup, ok, err := h.Fetcher(nil).FetchVisible(rid, w.Snapshot()); err != nil || !ok || tup[0].Int() != 7 {
		t.Errorf("own version: visible=%t err=%v", ok, err)
	}
	w.Abort()

	// After abort-undo the slot is deleted; fetch reports invisible
	// rather than erroring (index entries may still point here).
	if _, ok, err := h.Fetcher(nil).FetchVisible(rid, m.LatestSnapshot()); err != nil || ok {
		t.Errorf("aborted version: visible=%t err=%v, want invisible", ok, err)
	}
}

// A stale index entry costs a probe nothing but the page pin: fetching a
// swept slot, or one past the page's last, reports "not visible" without
// formatting an error.
func TestFetchVisibleOfASweptSlotDoesNotAllocate(t *testing.T) {
	bp, _ := newTestPool(8)
	h := NewStampedHeapFile(bp)
	m := NewTxnManager()
	rid, err := h.Append(row(1))
	if err != nil {
		t.Fatal(err)
	}
	w := m.Begin()
	if err := w.DeleteTuple(h, rid); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	var swept []RID
	if n, err := h.Sweep(m.Horizon(), m.IsActive, []int{0}, func(r RID, keys types.Tuple) {
		if keys[0].Int() != 1 {
			t.Errorf("swept version reports key %v, want 1", keys[0])
		}
		swept = append(swept, r)
	}); err != nil || n != 1 || len(swept) != 1 || swept[0] != rid {
		t.Fatalf("sweep removed %d, reported %v (err %v)", n, swept, err)
	}
	f := h.Fetcher(nil)
	snap := m.LatestSnapshot()
	for _, r := range []RID{rid, {Page: rid.Page, Slot: rid.Slot + 5}} {
		if _, ok, err := f.FetchVisible(r, snap); ok || err != nil {
			t.Fatalf("FetchVisible(%v) = %v, %v; want not visible", r, ok, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.FetchVisible(r, snap) }); allocs != 0 {
			t.Errorf("FetchVisible(%v) of a slot with no record allocates %v times", r, allocs)
		}
	}
}
