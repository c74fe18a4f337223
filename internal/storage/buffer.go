package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches disk pages in a fixed number of frames with LRU
// replacement. A page found in the pool costs nothing; a miss charges a
// disk read to the meter the pin names, and writing back a dirty frame
// charges a disk write to the meter that dirtied it. This models
// the paper's per-node 32 MB buffer pool, which they deliberately kept
// small "to study the effect of memory management techniques".
//
// The disk is simulated in memory, so the pool copies nothing: a frame
// holds the disk's own page, and the pool is the accounting over that
// memory — which pages are resident, in what LRU order, pinned how many
// times, dirty or clean, and what each miss and write-back costs.
//
// The pool is distinct from the Memory Manager's per-operator working
// memory: the pool caches base-table and temp-file pages, while operator
// memory (hash tables, sort runs) is tracked separately by
// internal/memmgr, exactly as in Paradise.
type BufferPool struct {
	mu       sync.Mutex
	disk     *Disk
	capacity int

	// Every frame is on lru; frames maps the pages resident in them. A
	// frame whose page was dropped holds InvalidPageID at the list's back,
	// the first a miss takes.
	frames map[PageID]*frame
	lru    *list.List // front = most recent; elements hold their *frame
}

type frame struct {
	id      PageID     // the page held; InvalidPageID until one is installed
	data    []byte     // the disk's page
	dirtier *CostMeter // charged the write-back; nil while the frame is clean
	pins    int
	elem    *list.Element // holds this frame, for as long as the frame lives
}

// NewBufferPool returns a pool of capacity frames over disk. Capacity
// must be at least 1.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		lru:      list.New(),
	}
}

// Capacity returns the number of frames.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Disk returns the underlying disk.
func (bp *BufferPool) Disk() *Disk { return bp.disk }

// Pin is PinMetered charging a miss to the disk's meter, the background
// account.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	return bp.PinMetered(id, bp.disk.meter)
}

// PinMetered fetches a page into the pool and pins it, returning its
// buffer; a miss charges one disk read to m, a hit nothing. A caller
// that mutates the buffer releases it with UnpinDirty.
func (bp *BufferPool) PinMetered(id PageID, m *CostMeter) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		f.pins++
		bp.lru.MoveToFront(f.elem)
		return f.data, nil
	}
	f, err := bp.freeFrameLocked()
	if err != nil {
		return nil, err
	}
	data, err := bp.disk.page(id)
	if err != nil {
		bp.parkLocked(f)
		return nil, err
	}
	m.ChargeRead(1)
	bp.installLocked(id, f, data, nil)
	return data, nil
}

// PinNew allocates a fresh, zeroed page on disk, installs a frame for it
// without a disk read, and pins it, dirty by the disk's meter until its
// writer unpins it. Use for appends.
func (bp *BufferPool) PinNew() (PageID, []byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.freeFrameLocked()
	if err != nil {
		return InvalidPageID, nil, err
	}
	id, data := bp.disk.Allocate()
	bp.installLocked(id, f, data, bp.disk.meter)
	return id, data, nil
}

// freeFrameLocked returns a frame that holds no page, at the front of
// the LRU list: a dropped page's if there is one, else a new one while
// the pool has room, otherwise the least recently used unpinned frame,
// its write-back charged if dirty. Reusing frames and list elements keeps
// a miss on a full pool, or after a temp file was dropped, free of
// allocation. The caller installs a page in the frame or parks it.
func (bp *BufferPool) freeFrameLocked() (*frame, error) {
	if e := bp.lru.Back(); e != nil && e.Value.(*frame).id == InvalidPageID {
		bp.lru.MoveToFront(e)
		return e.Value.(*frame), nil
	}
	if bp.lru.Len() < bp.capacity {
		f := &frame{id: InvalidPageID}
		// A pointer in the element's interface value is stored as it is:
		// a page id would be boxed, one allocation a miss.
		f.elem = bp.lru.PushFront(f)
		return f, nil
	}
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*frame)
		if f.pins > 0 {
			continue
		}
		bp.writeBackLocked(f)
		delete(bp.frames, f.id)
		bp.lru.MoveToFront(e)
		return f, nil
	}
	return nil, fmt.Errorf("storage: buffer pool exhausted (%d frames all pinned)", bp.capacity)
}

// writeBackLocked charges a dirty frame's write to its dirtier and marks
// it clean. The frame is the disk's page, so there is nothing to copy.
func (bp *BufferPool) writeBackLocked(f *frame) {
	if f.dirtier != nil {
		f.dirtier.ChargeWrite(1)
		f.dirtier = nil
	}
}

// installLocked makes f, fresh from freeFrameLocked, the pinned frame of
// page id, dirtied by dirtier (nil: clean).
func (bp *BufferPool) installLocked(id PageID, f *frame, data []byte, dirtier *CostMeter) {
	f.id, f.data, f.pins, f.dirtier = id, data, 1, dirtier
	bp.frames[id] = f
}

// Unpin releases one pin on the page.
func (bp *BufferPool) Unpin(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// UnpinDirty releases one pin on a page the caller modified, marking it
// dirty by m, the meter its write-back is charged to.
func (bp *BufferPool) UnpinDirty(id PageID, m *CostMeter) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		f.dirtier = m
		if f.pins > 0 {
			f.pins--
		}
	}
}

// FlushAll writes back every dirty frame, leaving them cached.
func (bp *BufferPool) FlushAll() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		bp.writeBackLocked(f)
	}
}

// Evict drops a page from the pool, writing it back if dirty. Used when a
// temp file is freed so stale frames do not linger.
func (bp *BufferPool) Evict(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return nil
	}
	if f.pins > 0 {
		return fmt.Errorf("storage: evicting pinned page %d", id)
	}
	bp.dropLocked(f)
	return nil
}

// EvictAll writes back every dirty frame and empties the pool (pinned
// frames are left in place). Benchmarks call it between runs to measure
// cold-cache executions deterministically.
func (bp *BufferPool) EvictAll() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.pins == 0 {
			bp.dropLocked(f)
		}
	}
}

// dropLocked writes back an unpinned frame if dirty and parks it.
func (bp *BufferPool) dropLocked(f *frame) {
	bp.writeBackLocked(f)
	delete(bp.frames, f.id)
	bp.parkLocked(f)
}

// parkLocked empties an unpinned frame that no page maps to and moves it
// to the LRU's back, where the next miss takes it instead of a new frame
// or a resident page's.
func (bp *BufferPool) parkLocked(f *frame) {
	f.id, f.data, f.dirtier, f.pins = InvalidPageID, nil, nil, 0
	bp.lru.MoveToBack(f.elem)
}

// Cached reports whether the page currently occupies a frame (for tests).
func (bp *BufferPool) Cached(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	_, ok := bp.frames[id]
	return ok
}
