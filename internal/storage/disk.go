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
// memory, with every read and write charged to a CostMeter. It stands in
// for the paper's physical disks; see the package comment for why the
// substitution preserves the experiments' behaviour.
type Disk struct {
	mu     sync.Mutex
	pages  map[PageID][]byte
	nextID PageID
	meter  *CostMeter
}

// NewDisk returns an empty disk charging I/O to meter.
func NewDisk(meter *CostMeter) *Disk {
	return &Disk{
		pages:  make(map[PageID][]byte),
		nextID: 1,
		meter:  meter,
	}
}

// Meter returns the disk's cost meter.
func (d *Disk) Meter() *CostMeter { return d.meter }

// Allocate reserves a new zeroed page and returns its ID. Allocation
// itself is free; the write happens when the page is flushed.
func (d *Disk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	d.pages[id] = make([]byte, PageSize)
	return id
}

// Read copies the page into a fresh buffer, charging one page read.
func (d *Disk) Read(id PageID) ([]byte, error) {
	buf := make([]byte, PageSize)
	if err := d.ReadInto(id, buf, nil); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto copies the page into dst (PageSize bytes), with the page-read
// charge attributed to m (the disk's own meter when m is nil). Parallel
// scan workers pass their tributary meters so a gather point can see
// each partition's I/O. The buffer pool passes the buffer of the frame
// it just evicted, so a miss allocates nothing.
func (d *Disk) ReadInto(id PageID, dst []byte, m *CostMeter) error {
	d.mu.Lock()
	p, ok := d.pages[id]
	if ok {
		copy(dst, p)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if m == nil {
		m = d.meter
	}
	m.ChargeRead(1)
	return nil
}

// Write stores the page contents, charging one page write. The stored
// page is overwritten in place (under the disk's lock, which ReadInto's
// copy also holds).
func (d *Disk) Write(id PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes to page %d (want %d)", len(data), id, PageSize)
	}
	d.mu.Lock()
	p, ok := d.pages[id]
	if ok {
		copy(p, data)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: write to unallocated page %d", id)
	}
	d.meter.ChargeWrite(1)
	return nil
}

// Free releases a page. Freeing is free (deallocation is a catalog
// operation, not an I/O).
func (d *Disk) Free(id PageID) {
	d.mu.Lock()
	delete(d.pages, id)
	d.mu.Unlock()
}

// NumPages returns the number of allocated pages (for tests and the
// catalog's size bookkeeping).
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}
