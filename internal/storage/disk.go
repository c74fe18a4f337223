package storage

import (
	"fmt"
	"sync"
)

// PageSize is the size in bytes of every simulated disk page.
const PageSize = 8192

// PageID names a page on the simulated disk. Page 0 is never allocated so
// the zero PageID can mean "no page".
type PageID uint64

// InvalidPageID is the reserved "no page" identifier.
const InvalidPageID PageID = 0

// Disk is the simulated disk: a flat space of fixed-size pages held in
// memory. It stands in for the paper's physical disks; see the package
// comment for why the substitution preserves the experiments' behaviour.
// The disk keeps the page memory and nothing else: the buffer pool pins
// these very pages (a frame is the disk's page, not a copy of it) and
// charges every read and write-back it models to a CostMeter.
type Disk struct {
	mu    sync.RWMutex
	pages [][]byte // by PageID; nil = never allocated (page 0), or freed
	live  int      // pages allocated and not freed
	meter *CostMeter
	// free holds the memory of freed pages (*[PageSize]byte) for the next
	// Allocate; the garbage collector empties it of what lies unused.
	free sync.Pool
}

// NewDisk returns an empty disk whose background account is meter.
func NewDisk(meter *CostMeter) *Disk {
	return &Disk{pages: make([][]byte, 1), meter: meter}
}

// Meter returns the disk's meter, the background account: the owner of
// base tables and indexes.
func (d *Disk) Meter() *CostMeter { return d.meter }

// Allocate reserves a new zeroed page and returns its ID and memory: a
// freed page's memory, cleared, when there is one. Allocation itself is
// free; the write is charged when the page is flushed. IDs are never
// reused: a stale reference to a freed page fails, it does not read
// someone else's.
func (d *Disk) Allocate() (PageID, []byte) {
	page, ok := d.free.Get().(*[PageSize]byte)
	if ok {
		clear(page[:])
	} else {
		page = new([PageSize]byte)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, page[:])
	d.live++
	return PageID(len(d.pages) - 1), page[:]
}

// page returns the memory of an allocated page.
func (d *Disk) page(id PageID) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id >= PageID(len(d.pages)) || d.pages[id] == nil {
		return nil, fmt.Errorf("storage: read of unallocated page %d", id)
	}
	return d.pages[id], nil
}

// Free releases a page and hands its memory to a later Allocate: the
// caller must hold no pin on it and keep no view of it (HeapFile.Drop
// evicts each page first and stops at a pinned one). Freeing is free
// (deallocation is a catalog operation, not an I/O).
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < PageID(len(d.pages)) && d.pages[id] != nil {
		d.free.Put((*[PageSize]byte)(d.pages[id]))
		d.pages[id] = nil
		d.live--
	}
}

// NumPages returns the number of allocated pages (for tests and the
// catalog's size bookkeeping).
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.live
}
