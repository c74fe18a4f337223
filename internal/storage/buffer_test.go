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
	bp.UnpinDirty(id1, bp.Disk().Meter())
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
	bp.UnpinDirty(id1, bp.Disk().Meter())
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
	bp.UnpinDirty(id, bp.Disk().Meter())
	before := m.Snapshot()
	bp.FlushAll()
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
	for _, id := range []PageID{InvalidPageID, 1, 999} {
		if _, err := d.page(id); err == nil {
			t.Errorf("read of unallocated page %d succeeded", id)
		}
	}
	id, page := d.Allocate()
	if got, err := d.page(id); err != nil || &got[0] != &page[0] || len(got) != PageSize {
		t.Errorf("page(%d) = %d bytes, %v; want the page Allocate returned", id, len(got), err)
	}
	d.Free(id)
	d.Free(id)   // a second Free does not count twice
	d.Free(9999) // nor does one of a page that never was
	if d.NumPages() != 0 {
		t.Errorf("NumPages after free = %d", d.NumPages())
	}
	if _, err := d.page(id); err == nil {
		t.Error("read of a freed page succeeded")
	}
	if next, _ := d.Allocate(); next == id || d.NumPages() != 1 {
		t.Errorf("Allocate after Free returned page %d (freed: %d), NumPages %d", next, id, d.NumPages())
	}
	if snap := m.Snapshot(); snap.PageReads != 0 || snap.PageWrites != 0 {
		t.Errorf("the disk itself charged %v: only the pool's misses and write-backs cost", snap)
	}
}

// A freed page's memory goes to a later Allocate: a dirty page that is
// freed comes back zeroed, under a new ID, and its old ID still fails.
func TestFreedPageMemoryComesBackZeroed(t *testing.T) {
	bp, _ := newTestPool(4)
	reused := 0
	for round := 0; round < 20; round++ {
		id, buf, err := bp.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
		bp.UnpinDirty(id, bp.Disk().Meter())
		if err := bp.Evict(id); err != nil {
			t.Fatal(err)
		}
		bp.Disk().Free(id)
		next, page, err := bp.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		if next <= id {
			t.Fatalf("Allocate after freeing page %d returned page %d", id, next)
		}
		if &page[0] == &buf[0] {
			reused++
		}
		for i, b := range page {
			if b != 0 {
				t.Fatalf("a new page reads %#x at byte %d", b, i)
			}
		}
		if _, err := bp.Pin(id); err == nil {
			t.Fatalf("Pin of freed page %d succeeded", id)
		}
		bp.Unpin(next)
		if err := bp.Evict(next); err != nil {
			t.Fatal(err)
		}
		bp.Disk().Free(next)
	}
	// The pool may drop what it holds (a collection empties it; the race
	// detector drops a quarter), but not twenty times running.
	if reused == 0 {
		t.Error("no freed page's memory came back in 20 rounds")
	}
}

// A frame is the disk's page, lent: what a caller reads through a frame
// that held other pages before must be the page it asked for, a fresh
// page must come up zeroed, and the charges are the ones a copying pool
// made — a read per miss, a write per dirty victim, per dirty frame
// flushed and per dirty page evicted.
func TestBufferPoolRecyclesFramesSafely(t *testing.T) {
	bp, m := newTestPool(3)
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
		bp.UnpinDirty(id, bp.Disk().Meter())
		ids = append(ids, id)
	}
	if len(bp.frames) != 3 || bp.lru.Len() != 3 {
		t.Fatalf("%d frames, %d LRU entries in a pool of 3", len(bp.frames), bp.lru.Len())
	}
	// Ten dirty pages went through three frames: seven were written back.
	if got := m.Snapshot(); got.PageWrites != 7 || got.PageReads != 0 {
		t.Fatalf("filling the pool charged %v, want 7 writes", got)
	}
	for round := 0; round < 3; round++ {
		before := m.Snapshot()
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
		// A cyclic walk of ten pages through an LRU of three misses every
		// time; only the first round finds dirty victims, the last three
		// pages filled.
		wantWrites := int64(0)
		if round == 0 {
			wantWrites = 3
		}
		if d := m.Snapshot().Sub(before); d.PageReads != 10 || d.PageWrites != wantWrites {
			t.Fatalf("round %d charged %v, want 10 reads and %d writes", round, d, wantWrites)
		}
	}
	buf, _ := bp.Pin(ids[9])
	buf[0] = 0xFF
	bp.UnpinDirty(ids[9], bp.Disk().Meter())
	before := m.Snapshot()
	bp.FlushAll()
	for _, id := range ids {
		if err := bp.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	if d := m.Snapshot().Sub(before); d.PageWrites != 1 || d.PageReads != 0 {
		t.Errorf("FlushAll of one dirty page, then evicting it clean, charged %v", d)
	}
	if n := residentFrames(t, bp); n != 0 {
		t.Fatalf("after evicting everything: %d frames hold a page", n)
	}
	if buf, _ = bp.Pin(ids[9]); buf[0] != 0xFF || buf[1] != 10 {
		t.Errorf("page %d reads %d %d after its eviction, want 255 10", ids[9], buf[0], buf[1])
	}
	if _, buf, _ := bp.PinNew(); buf[0] != 0 {
		t.Errorf("a fresh page in an emptied pool starts with %d", buf[0])
	}
}

func TestBufferPoolFailedReadLeavesNoFrame(t *testing.T) {
	bp, _ := newTestPool(2)
	if _, err := bp.Pin(999); err == nil {
		t.Fatal("pin of unallocated page succeeded")
	}
	if n := residentFrames(t, bp); n != 0 {
		t.Errorf("failed pin left %d frames holding a page", n)
	}
}

// residentFrames returns how many frames hold a page, failing t unless
// the map holds exactly those and every other frame on the LRU list is
// parked: empty, unpinned, clean.
func residentFrames(t *testing.T, bp *BufferPool) int {
	t.Helper()
	if bp.lru.Len() > bp.capacity {
		t.Fatalf("%d LRU entries in a pool of %d", bp.lru.Len(), bp.capacity)
	}
	n := 0
	for e := bp.lru.Front(); e != nil; e = e.Next() {
		f := e.Value.(*frame)
		if f.id != InvalidPageID {
			if bp.frames[f.id] != f {
				t.Fatalf("the frame of page %d is not the one the map holds", f.id)
			}
			n++
		} else if f.data != nil || f.pins != 0 || f.dirtier != nil {
			t.Fatalf("a parked frame holds data %t, %d pins, dirtier %v", f.data != nil, f.pins, f.dirtier)
		}
	}
	if n != len(bp.frames) {
		t.Fatalf("%d frames hold a page, the map has %d", n, len(bp.frames))
	}
	return n
}

// A page dropped from a full pool leaves its frame behind for the next
// miss: a pin-miss / unpin / Evict cycle allocates nothing, takes the
// dropped frame before any resident page's, and charges one read.
func TestBufferPoolReusesDroppedFrame(t *testing.T) {
	bp, m := newTestPool(3)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _, err := bp.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id)
		ids = append(ids, id)
	}
	bp.FlushAll()
	// The pool held ids[1..3], ids[0] pushed out; dropping ids[3] leaves
	// its frame behind.
	if err := bp.Evict(ids[3]); err != nil {
		t.Fatal(err)
	}
	resident, cycled := ids[1:3], ids[0]
	before := m.Snapshot()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bp.Pin(cycled); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(cycled)
		if err := bp.Evict(cycled); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a pin-miss / unpin / Evict cycle on a full pool allocates %.1f times", allocs)
	}
	for _, id := range resident {
		if !bp.Cached(id) {
			t.Fatalf("page %d was evicted: the miss took a resident page's frame, not the dropped one", id)
		}
	}
	if d := m.Snapshot().Sub(before); d.PageReads != 101 || d.PageWrites != 0 {
		t.Errorf("101 cycles charged %v, want 101 reads and no writes", d)
	}
	if n := residentFrames(t, bp); n != 2 || bp.lru.Len() != 3 {
		t.Errorf("%d frames hold a page, %d LRU entries, want 2 and 3", n, bp.lru.Len())
	}
}

func TestBufferPoolUnpinDirty(t *testing.T) {
	bp, m := newTestPool(4)
	id, buf, _ := bp.PinNew()
	bp.Unpin(id)
	bp.FlushAll()
	buf, _ = bp.Pin(id)
	buf[0] = 9
	bp.UnpinDirty(id, bp.Disk().Meter())
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

// The pool lends the disk's pages instead of copying them: two pins of
// one page, and a pin after the page was evicted, see one buffer; pins of
// two pages never do.
func TestDiskWriteDoesNotAliasReads(t *testing.T) {
	bp, _ := newTestPool(2)
	a, bufA, _ := bp.PinNew()
	b, bufB, _ := bp.PinNew()
	bufA[0], bufB[0] = 1, 2
	again, err := bp.Pin(a)
	if err != nil || &again[0] != &bufA[0] {
		t.Fatalf("a second pin of page %d returned another buffer (%v)", a, err)
	}
	bp.Unpin(a)
	bp.UnpinDirty(a, bp.Disk().Meter())
	bp.UnpinDirty(b, bp.Disk().Meter())
	if bufA[0] != 1 || bufB[0] != 2 {
		t.Fatalf("pages %d and %d share memory: read %d, %d", a, b, bufA[0], bufB[0])
	}
	for i := 0; i < 2; i++ { // push both out
		id, _, _ := bp.PinNew()
		bp.Unpin(id)
	}
	if bp.Cached(a) || bp.Cached(b) {
		t.Fatal("pages still cached in a pool of 2 after 2 more were pinned")
	}
	if back, err := bp.Pin(b); err != nil || &back[0] != &bufB[0] || back[0] != 2 {
		t.Errorf("page %d re-pinned after eviction is not the page it was (%v)", b, err)
	}
}
