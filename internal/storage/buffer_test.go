package storage

import (
	"testing"
)

func newTestPool(capacity int) (*BufferPool, *CostMeter) {
	m := NewCostMeter(DefaultCostWeights())
	d := NewDisk(m)
	return NewBufferPool(d, capacity), m
}

func TestBufferPoolHitCostsNothing(t *testing.T) {
	bp, m := newTestPool(4)
	id, _, err := bp.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id)
	before := m.Snapshot()
	for i := 0; i < 10; i++ {
		if _, err := bp.Pin(id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id)
	}
	if d := m.Snapshot().Sub(before); d.PageReads != 0 {
		t.Errorf("cached pins charged %d reads", d.PageReads)
	}
}

func TestBufferPoolMissChargesRead(t *testing.T) {
	bp, m := newTestPool(2)
	// Fill the pool past capacity so page1 is evicted.
	id1, buf, _ := bp.PinNew()
	buf[0] = 0xAB
	bp.MarkDirty(id1)
	bp.Unpin(id1)
	id2, _, _ := bp.PinNew()
	bp.Unpin(id2)
	id3, _, _ := bp.PinNew()
	bp.Unpin(id3)

	if bp.Cached(id1) {
		t.Fatal("page1 should have been evicted")
	}
	before := m.Snapshot()
	got, err := bp.Pin(id1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("dirty page content lost across eviction")
	}
	bp.Unpin(id1)
	if d := m.Snapshot().Sub(before); d.PageReads != 1 {
		t.Errorf("miss charged %d reads, want 1", d.PageReads)
	}
}

func TestBufferPoolDirtyEvictionChargesWrite(t *testing.T) {
	bp, m := newTestPool(1)
	id1, _, _ := bp.PinNew()
	bp.MarkDirty(id1)
	bp.Unpin(id1)
	before := m.Snapshot()
	id2, _, _ := bp.PinNew() // forces eviction of dirty id1
	bp.Unpin(id2)
	if d := m.Snapshot().Sub(before); d.PageWrites != 1 {
		t.Errorf("dirty eviction charged %d writes, want 1", d.PageWrites)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp, _ := newTestPool(1)
	id, _, _ := bp.PinNew()
	if _, _, err := bp.PinNew(); err == nil {
		t.Error("PinNew with all frames pinned succeeded")
	}
	bp.Unpin(id)
	if _, _, err := bp.PinNew(); err != nil {
		t.Errorf("PinNew after unpin: %v", err)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	bp, _ := newTestPool(2)
	a, _, _ := bp.PinNew()
	bp.Unpin(a)
	b, _, _ := bp.PinNew()
	bp.Unpin(b)
	// Touch a so b becomes the LRU victim.
	bp.Pin(a)
	bp.Unpin(a)
	c, _, _ := bp.PinNew()
	bp.Unpin(c)
	if !bp.Cached(a) {
		t.Error("recently used page a was evicted")
	}
	if bp.Cached(b) {
		t.Error("LRU page b was not evicted")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	bp, m := newTestPool(4)
	id, buf, _ := bp.PinNew()
	buf[0] = 7
	bp.MarkDirty(id)
	bp.Unpin(id)
	before := m.Snapshot()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d.PageWrites != 1 {
		t.Errorf("FlushAll charged %d writes", d.PageWrites)
	}
	// Second flush is a no-op.
	before = m.Snapshot()
	bp.FlushAll()
	if d := m.Snapshot().Sub(before); d.PageWrites != 0 {
		t.Error("second FlushAll rewrote clean pages")
	}
}

func TestBufferPoolEvict(t *testing.T) {
	bp, _ := newTestPool(4)
	id, _, _ := bp.PinNew()
	if err := bp.Evict(id); err == nil {
		t.Error("Evict of pinned page succeeded")
	}
	bp.Unpin(id)
	if err := bp.Evict(id); err != nil {
		t.Fatal(err)
	}
	if bp.Cached(id) {
		t.Error("page still cached after Evict")
	}
	if err := bp.Evict(id); err != nil {
		t.Errorf("Evict of absent page: %v", err)
	}
}

func TestDiskErrors(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	d := NewDisk(m)
	if _, err := d.Read(999); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := d.Write(999, make([]byte, PageSize)); err == nil {
		t.Error("write to unallocated page succeeded")
	}
	id := d.Allocate()
	if err := d.Write(id, make([]byte, 10)); err == nil {
		t.Error("short write succeeded")
	}
	d.Free(id)
	if d.NumPages() != 0 {
		t.Errorf("NumPages after free = %d", d.NumPages())
	}
}

// A miss on a full pool reuses the victim's buffer: what a caller reads
// through a recycled frame must be the page it asked for, dirty victims
// must reach the disk first, and a fresh page must come up zeroed.
func TestBufferPoolRecyclesFramesSafely(t *testing.T) {
	bp, _ := newTestPool(3)
	var ids []PageID
	for i := 0; i < 10; i++ {
		id, buf, err := bp.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			if buf[j] != 0 {
				t.Fatalf("fresh page %d not zeroed at byte %d", id, j)
			}
		}
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		bp.UnpinDirty(id)
		ids = append(ids, id)
	}
	if len(bp.frames) != 3 || bp.lru.Len() != 3 {
		t.Fatalf("%d frames, %d LRU entries in a pool of 3", len(bp.frames), bp.lru.Len())
	}
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			buf, err := bp.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i+1) || buf[PageSize-1] != byte(i+1) {
				t.Fatalf("page %d reads %d..%d, want %d", id, buf[0], buf[PageSize-1], i+1)
			}
			bp.Unpin(id)
		}
	}
	// Frames emptied by Evict give their buffers to the next pages.
	for _, id := range ids {
		if err := bp.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(bp.frames) != 0 || bp.lru.Len() != 0 || len(bp.spare) != 3 {
		t.Fatalf("after evicting everything: %d frames, %d LRU entries, %d spare buffers", len(bp.frames), bp.lru.Len(), len(bp.spare))
	}
	if _, buf, _ := bp.PinNew(); buf[0] != 0 || len(bp.spare) != 2 {
		t.Errorf("page on a spare buffer starts with %d, %d buffers left", buf[0], len(bp.spare))
	}
}

func TestBufferPoolFailedReadLeavesNoFrame(t *testing.T) {
	bp, _ := newTestPool(2)
	if _, err := bp.Pin(999); err == nil {
		t.Fatal("pin of unallocated page succeeded")
	}
	if len(bp.frames) != 0 || bp.lru.Len() != 0 {
		t.Errorf("failed pin left %d frames, %d LRU entries", len(bp.frames), bp.lru.Len())
	}
}

func TestBufferPoolUnpinDirty(t *testing.T) {
	bp, m := newTestPool(4)
	id, buf, _ := bp.PinNew()
	bp.Unpin(id)
	bp.FlushAll()
	buf, _ = bp.Pin(id)
	buf[0] = 9
	bp.UnpinDirty(id)
	before := m.Snapshot()
	if err := bp.Evict(id); err != nil {
		t.Fatalf("page still pinned after UnpinDirty: %v", err)
	}
	if d := m.Snapshot().Sub(before); d.PageWrites != 1 {
		t.Errorf("evicting the page wrote %d pages, want 1", d.PageWrites)
	}
	if buf, _ = bp.Pin(id); buf[0] != 9 {
		t.Error("change made before UnpinDirty was lost")
	}
}

// Disk.Write overwrites the stored page in place; a buffer handed out by
// an earlier Read must not change with it.
func TestDiskWriteDoesNotAliasReads(t *testing.T) {
	d := NewDisk(NewCostMeter(DefaultCostWeights()))
	id := d.Allocate()
	page := make([]byte, PageSize)
	page[0] = 1
	d.Write(id, page)
	got, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	page[0] = 2
	d.Write(id, page)
	if got[0] != 1 {
		t.Error("a buffer returned by Read changed on a later Write")
	}
	if again, _ := d.Read(id); again[0] != 2 {
		t.Error("second Write did not reach the page")
	}
}
