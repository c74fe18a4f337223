package storage

import (
	"testing"
)

func TestEvictAllEmptiesPool(t *testing.T) {
	bp, m := newTestPool(8)
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, buf, err := bp.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		bp.UnpinDirty(id, bp.Disk().Meter())
		ids = append(ids, id)
	}
	before := m.Snapshot()
	bp.EvictAll()
	// All dirty frames were written back exactly once.
	if d := m.Snapshot().Sub(before); d.PageWrites != 5 {
		t.Errorf("EvictAll wrote %d pages, want 5", d.PageWrites)
	}
	for _, id := range ids {
		if bp.Cached(id) {
			t.Errorf("page %d still cached after EvictAll", id)
		}
	}
	// Contents survive on disk.
	buf, err := bp.Pin(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Errorf("page content lost across EvictAll: %d", buf[0])
	}
	bp.Unpin(ids[2])
}

func TestEvictAllSkipsPinned(t *testing.T) {
	bp, _ := newTestPool(8)
	id, _, _ := bp.PinNew() // stays pinned
	other, _, _ := bp.PinNew()
	bp.Unpin(other)
	bp.EvictAll()
	if !bp.Cached(id) {
		t.Error("pinned page was evicted")
	}
	if bp.Cached(other) {
		t.Error("unpinned page survived EvictAll")
	}
	bp.Unpin(id)
}
