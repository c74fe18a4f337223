package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/types"
)

// RID names a record: the page it lives on and its slot.
type RID struct {
	Page PageID
	Slot int
}

// stampSize is the per-record MVCC overhead of a stamped heap: two
// little-endian uint32 transaction stamps (xmin, xmax) preceding the
// encoded tuple payload. The stamps are the only bytes of a record
// ever mutated in place; a record moves only when Sweep compacts its
// page, under the heap's write lock like every stamp update.
const stampSize = 8

// HeapFile is an unordered collection of tuples stored across slotted
// pages. Base tables, temporary spill partitions, and materialized
// intermediate results are all heap files.
//
// A heap file's own page accesses, and the misses of a reader that names
// no meter, are charged to its owner meter (see NewTempFile).
//
// A stamped heap (NewStampedHeapFile) prefixes every record with MVCC
// transaction stamps and supports versioned inserts, deletes, and
// snapshot-visible scans; temp and spill files stay unstamped and pay
// no per-record overhead. All methods are safe for concurrent use: a
// single writer's page mutations (appends, stamp updates, slot
// deletes) exclude readers via an RW mutex.
type HeapFile struct {
	pool    *BufferPool
	meter   *CostMeter // the owner
	stamped bool
	temp    bool

	mu     sync.RWMutex
	pages  []PageID
	tuples int64
	bytes  int64
	// roomy lists, by ascending page index, the pages Sweep compacted.
	// Appends fill them, last first, before the tail page, so a heap
	// under update traffic stops growing once vacuum keeps up.
	roomy []roomyPage
	// unswept holds the pages Sweep must visit: each took a delete
	// stamp, or lost a record to an undone insert, since Sweep last
	// found nothing left to do there. Every other page has no version
	// to remove and no hole to close, so a sweep's cost follows the
	// writes since the last one, not the size of the table.
	unswept map[PageID]struct{}
}

// roomyPage is a page with reusable space: its index in HeapFile.pages
// and its SlottedPage.FreeSpace when the heap last touched it.
type roomyPage struct {
	idx, free int
}

// NewHeapFile creates an empty unstamped heap file backed by pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, meter: pool.disk.meter}
}

// NewStampedHeapFile creates an empty heap file whose records carry
// MVCC transaction stamps. Base tables that accept DML use stamped
// heaps.
func NewStampedHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, meter: pool.disk.meter, stamped: true}
}

// NewTempFile creates a heap file owned by m, the query's meter, whose
// pages are released by Drop: spill partitions, sort runs, materialized
// intermediate results (paper §2.4, Figure 6). Other heap files are owned
// by the disk's meter, the background account.
func NewTempFile(pool *BufferPool, m *CostMeter) *HeapFile {
	return &HeapFile{pool: pool, meter: m, temp: true}
}

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// NumTuples returns the number of tuple versions physically present
// (live versions plus committed-deleted versions not yet swept).
func (h *HeapFile) NumTuples() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.tuples
}

// ByteSize returns the total encoded bytes of all tuple payloads
// (excluding MVCC stamps), used for average-tuple-size statistics.
func (h *HeapFile) ByteSize() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// Stamped reports whether records carry MVCC transaction stamps.
func (h *HeapFile) Stamped() bool { return h.stamped }

// Append adds a tuple to the file and returns its RID. On a stamped
// heap the record is frozen (xmin 0): visible to every snapshot, as
// bulk loads outside any transaction should be.
func (h *HeapFile) Append(t types.Tuple) (RID, error) {
	return h.appendStamped(t, 0)
}

// AppendVersion adds a tuple version owned by transaction xmin. The
// version is invisible to snapshots that do not include xmin.
func (h *HeapFile) AppendVersion(t types.Tuple, xmin TxnID) (RID, error) {
	if !h.stamped {
		return RID{}, fmt.Errorf("storage: AppendVersion on unstamped heap")
	}
	return h.appendStamped(t, xmin)
}

func (h *HeapFile) appendStamped(t types.Tuple, xmin TxnID) (RID, error) {
	payload := types.EncodedSize(t)
	size := payload
	if h.stamped {
		size += stampSize
	}
	if size > PageSize-pageHeaderSize-4 {
		return RID{}, fmt.Errorf("storage: tuple of %d bytes exceeds page capacity", size)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id, buf, err := h.pageWithRoomLocked(size)
	if err != nil {
		return RID{}, err
	}
	slot, rec, err := LoadSlottedPage(buf).Reserve(size)
	if err != nil {
		h.pool.Unpin(id)
		return RID{}, err
	}
	// Encode straight into the page: rec has exactly the record's
	// capacity, so EncodeTuple's appends fill it without reallocating.
	rec = rec[:0]
	if h.stamped {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(xmin))
		rec = binary.LittleEndian.AppendUint32(rec, 0)
	}
	types.EncodeTuple(rec, t)
	h.pool.UnpinDirty(id, h.meter)
	h.tuples++
	h.bytes += int64(payload)
	return RID{Page: id, Slot: slot}, nil
}

// pageWithRoomLocked pins a page a record of size bytes fits on — a page
// Sweep compacted, else the tail page, else a new, formatted one — and
// returns its buffer.
func (h *HeapFile) pageWithRoomLocked(size int) (PageID, []byte, error) {
	for len(h.roomy) > 0 {
		r := &h.roomy[len(h.roomy)-1]
		if r.free < size+4 {
			// Too full for this record: forget the page until the
			// next Sweep that finds holes on it.
			h.roomy = h.roomy[:len(h.roomy)-1]
			continue
		}
		r.free -= size + 4
		id := h.pages[r.idx]
		buf, err := h.pool.PinMetered(id, h.meter)
		return id, buf, err
	}
	if n := len(h.pages); n > 0 {
		id := h.pages[n-1]
		buf, err := h.pool.PinMetered(id, h.meter)
		if err != nil {
			return InvalidPageID, nil, err
		}
		if LoadSlottedPage(buf).CanFit(size) {
			return id, buf, nil
		}
		h.pool.Unpin(id)
	}
	id, buf, err := h.pool.PinNew()
	if err != nil {
		return InvalidPageID, nil, err
	}
	NewSlottedPage(buf)
	h.pages = append(h.pages, id)
	return id, buf, nil
}

// decodeStamp reads the (xmin, xmax) stamps from a stamped record.
func decodeStamp(rec []byte) (xmin, xmax TxnID) {
	return TxnID(binary.LittleEndian.Uint32(rec[0:4])),
		TxnID(binary.LittleEndian.Uint32(rec[4:8]))
}

// versionVisible decides visibility of a stamped version for snap. A
// nil snapshot sees exactly the undeleted versions — correct only for
// scans that cannot run concurrently with writers (bulk loads, tests).
func versionVisible(snap *TxnSnapshot, xmin, xmax TxnID) bool {
	if snap == nil {
		return xmax == 0
	}
	return snap.Sees(xmin, xmax)
}

// Fetcher returns a reader of single records by RID that can carry the
// filter and projection a scanner can: an index join fetches inner
// tuples through one, so that it too tests its inner filters before
// decoding and materialises only the columns the query uses. Like
// ScanPartition it charges the pages it misses to meter (nil: the owner).
func (h *HeapFile) Fetcher(meter *CostMeter) *HeapFetcher {
	return &HeapFetcher{file: h, meter: cmp.Or(meter, h.meter)}
}

// HeapFetcher fetches records of one heap file by RID. Not safe for
// concurrent use: it reuses its record shape from fetch to fetch.
type HeapFetcher struct {
	file  *HeapFile
	meter *CostMeter // charged the pages it misses
	recordReader
}

// WithFilter is HeapScanner.WithFilter for fetches: a visible record the
// filter rejects is reported as ok=false.
func (f *HeapFetcher) WithFilter(filter RecordFilter) *HeapFetcher {
	f.filter = filter
	return f
}

// WithColumns is HeapScanner.WithColumns for fetches.
func (f *HeapFetcher) WithColumns(cols []int) *HeapFetcher {
	f.cols = cols
	return f
}

// FetchVisible reads the tuple at rid if its version is visible to snap
// and passes the fetcher's filter, projected to its columns. It returns
// ok=false — without error — when the slot was physically deleted
// (aborted insert, swept version), the version is outside the snapshot
// or the filter rejects it, so index probes can skip stale entries.
func (f *HeapFetcher) FetchVisible(rid RID, snap *TxnSnapshot) (types.Tuple, bool, error) {
	h := f.file
	h.mu.RLock()
	defer h.mu.RUnlock()
	buf, err := h.pool.PinMetered(rid.Page, f.meter)
	if err != nil {
		return nil, false, err
	}
	defer h.pool.Unpin(rid.Page)
	page := LoadSlottedPage(buf)
	if rid.Slot < 0 || rid.Slot >= page.NumSlots() {
		return nil, false, nil
	}
	rec := page.live(rid.Slot)
	if rec == nil {
		return nil, false, nil // deleted slot: not an error for probes
	}
	if h.stamped {
		xmin, xmax := decodeStamp(rec)
		if !versionVisible(snap, xmin, xmax) {
			return nil, false, nil
		}
		rec = rec[stampSize:]
	}
	if err := f.fit(rec); err != nil {
		return nil, false, err
	}
	if f.filter != nil {
		if pass, err := f.filter.Test(rec, &f.shape); !pass || err != nil {
			return nil, false, err
		}
	}
	tup, err := f.mem.Materialize(rec, &f.shape, f.cols, 0) // how many more fetches: unknown
	return tup, err == nil, err
}

// SetXmax stamps the version at rid as deleted by transaction id.
// First writer wins: if any transaction already stamped the version —
// still in flight or committed — ErrWriteConflict is returned. (An
// aborted deleter clears its stamp before deactivating, so a non-zero
// stamp never belongs to an aborted transaction; at worst a racing
// abort costs a spurious conflict.)
func (h *HeapFile) SetXmax(rid RID, id TxnID) error {
	if !h.stamped {
		return fmt.Errorf("storage: SetXmax on unstamped heap")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch set, err := h.swapXmaxLocked(rid, 0, id); {
	case err != nil:
		return err
	case !set:
		return ErrWriteConflict
	}
	h.markUnsweptLocked(rid.Page)
	return nil
}

// swapXmaxLocked stamps the version at rid deleted by to if its delete
// stamp reads from, and reports whether it did.
func (h *HeapFile) swapXmaxLocked(rid RID, from, to TxnID) (bool, error) {
	buf, err := h.pool.PinMetered(rid.Page, h.meter)
	if err != nil {
		return false, err
	}
	rec, err := LoadSlottedPage(buf).Record(rid.Slot)
	if err != nil || binary.LittleEndian.Uint32(rec[4:8]) != uint32(from) {
		h.pool.Unpin(rid.Page)
		return false, err
	}
	binary.LittleEndian.PutUint32(rec[4:8], uint32(to))
	h.pool.UnpinDirty(rid.Page, h.meter)
	return true, nil
}

// markUnsweptLocked adds page id to the pages the next Sweep visits.
func (h *HeapFile) markUnsweptLocked(id PageID) {
	if h.unswept == nil {
		h.unswept = make(map[PageID]struct{})
	}
	h.unswept[id] = struct{}{}
}

// ClearXmax undoes a delete stamp during abort. Only the stamping
// transaction's own mark is cleared.
func (h *HeapFile) ClearXmax(rid RID, id TxnID) error {
	if !h.stamped {
		return fmt.Errorf("storage: ClearXmax on unstamped heap")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.swapXmaxLocked(rid, id, 0)
	return err
}

// DeleteSlot physically removes the record at rid (abort undo of an
// insert, or garbage collection of a dead version).
func (h *HeapFile) DeleteSlot(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deleteSlotLocked(rid)
}

func (h *HeapFile) deleteSlotLocked(rid RID) error {
	buf, err := h.pool.PinMetered(rid.Page, h.meter)
	if err != nil {
		return err
	}
	page := LoadSlottedPage(buf)
	rec, err := page.Record(rid.Slot)
	if err == nil {
		err = page.Delete(rid.Slot)
	}
	if err != nil {
		h.pool.Unpin(rid.Page)
		return err
	}
	h.pool.UnpinDirty(rid.Page, h.meter)
	payload := len(rec)
	if h.stamped {
		payload -= stampSize
	}
	h.markUnsweptLocked(rid.Page) // the record's bytes are a hole until Sweep compacts
	h.tuples--
	h.bytes -= int64(payload)
	return nil
}

// Sweep physically deletes dead versions: those stamped deleted by a
// transaction that committed below the GC horizon (no live snapshot
// can still see them). isActive guards against sweeping versions whose
// deleter is still in flight. It returns the number of versions
// removed. Every page left with holes — by these deletes, or by the
// undo of an aborted insert — is compacted and remembered as having
// room, so later appends reuse the space: the record bytes, not the
// slot numbers, so an index entry that outlives its version resolves
// to "deleted", never to a newer record. Only the pages a delete stamp
// or an undone insert touched since they were last swept clean are
// visited; a page keeps its place on that list while it still holds a
// stamped version the horizon protects.
//
// When swept is non-nil it is called, under the heap's write lock, with
// the RID of every removed version and that version's columns at keys
// (ascending ordinals): the caller drops the version's index entries
// with them once Sweep has returned.
func (h *HeapFile) Sweep(horizon TxnID, isActive func(TxnID) bool, keys []int, swept func(RID, types.Tuple)) (int64, error) {
	if !h.stamped {
		return 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.unswept) == 0 {
		return 0, nil
	}
	var removed int64
	var sweepErr error
	var rd recordReader // decodes the swept versions' keys
	known := h.roomy    // pages already listed stay listed, with a fresh count
	roomy := make([]roomyPage, 0, len(known))
	for idx, id := range h.pages {
		var entry roomyPage
		listed := len(known) > 0 && known[0].idx == idx
		if listed {
			entry, known = known[0], known[1:]
		}
		if _, ok := h.unswept[id]; !ok {
			if listed {
				roomy = append(roomy, entry) // only appends touched it: its count is exact
			}
			continue
		}
		buf, err := h.pool.PinMetered(id, h.meter)
		if err != nil {
			if listed {
				roomy = append(roomy, entry)
			}
			h.roomy = append(roomy, known...)
			return removed, err
		}
		page := LoadSlottedPage(buf)
		kept := 0        // data bytes of the records that stay
		stamped := false // a stamped version stays: visit the page again
		for slot, n := 0, page.NumSlots(); slot < n; slot++ {
			rec := page.live(slot)
			if rec == nil {
				continue // already deleted
			}
			_, xmax := decodeStamp(rec)
			if xmax == 0 || xmax >= horizon || (isActive != nil && isActive(xmax)) {
				kept += 2 + len(rec)
				stamped = stamped || xmax != 0
				continue
			}
			if swept != nil {
				// A version whose keys do not decode stays, with its
				// entries: the heap and its indexes keep agreeing.
				if err := rd.fit(rec[stampSize:]); err != nil {
					sweepErr = err
					kept += 2 + len(rec)
					stamped = true
					continue
				}
				tup, _ := rd.mem.Materialize(rec[stampSize:], &rd.shape, keys, 0) // fitted: cannot fail
				swept(RID{Page: id, Slot: slot}, tup)
			}
			page.Delete(slot) // in range: cannot fail
			h.tuples--
			h.bytes -= int64(len(rec) - stampSize)
			removed++
		}
		holes := page.DataBytes() > kept
		if holes {
			page.Compact()
		}
		if holes || listed {
			roomy = append(roomy, roomyPage{idx: idx, free: page.FreeSpace()})
		}
		if holes {
			h.pool.UnpinDirty(id, h.meter)
		} else {
			h.pool.Unpin(id)
		}
		if !stamped {
			delete(h.unswept, id)
		}
	}
	h.roomy = roomy
	return removed, sweepErr
}

// DeadVersions counts versions carrying a delete stamp (committed or
// in-flight). The fuzz harness uses it to assert GC leaves no residue.
func (h *HeapFile) DeadVersions() (int64, error) {
	if !h.stamped {
		return 0, nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	var dead int64
	for _, id := range h.pages {
		buf, err := h.pool.PinMetered(id, h.meter)
		if err != nil {
			return dead, err
		}
		page := LoadSlottedPage(buf)
		for slot, n := 0, page.NumSlots(); slot < n; slot++ {
			if rec := page.live(slot); rec != nil {
				if _, xmax := decodeStamp(rec); xmax != 0 {
					dead++
				}
			}
		}
		h.pool.Unpin(id)
	}
	return dead, nil
}

// Scan returns an iterator over every tuple in the file, in storage
// order. On a stamped heap the iterator skips deleted versions; give
// it a snapshot with WithSnapshot for transactional visibility.
func (h *HeapFile) Scan() *HeapScanner {
	return h.ScanPartition(0, 1, nil)
}

// ScanPartition returns an iterator over the part-th of `of` page-wise
// partitions of the file (pages whose index ≡ part mod of), charging any
// buffer-pool misses to meter (nil: the file's owner). This models
// Paradise's declustered storage: each parallel scan worker reads its own
// disjoint set of pages, so partition I/O is disjoint and attributable.
func (h *HeapFile) ScanPartition(part, of int, meter *CostMeter) *HeapScanner {
	if of < 1 {
		of = 1
	}
	return &HeapScanner{file: h, pageIdx: part % of, stride: of, meter: cmp.Or(meter, h.meter)}
}

// Drop releases a temp file's pages from the pool and disk. Dropping a
// non-temp file is a no-op so base tables cannot be freed accidentally.
func (h *HeapFile) Drop() error {
	if !h.temp {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.pages {
		if err := h.pool.Evict(id); err != nil {
			return err
		}
		h.pool.Disk().Free(id)
	}
	h.pages = nil
	h.roomy = nil
	h.unswept = nil
	h.tuples = 0
	h.bytes = 0
	return nil
}

// HeapScanner iterates a heap file a page at a time. Each step takes the
// heap's read lock and pins one page, once; walks the page's slots
// applying MVCC visibility and the pushed filter; decodes the surviving
// records; and releases pin and lock before Next hands anything out. No
// lock or pin is ever held between calls, however many scanners a sort
// merge or a partitioned join keeps open. A full scan of an uncached
// file charges exactly NumPages() reads; a partitioned scanner
// (stride > 1) visits only its own pages and charges their reads to its
// meter.
//
// The scanner sees each page as it was when it loaded it: a record
// appended to that page afterwards is not returned.
//
// Every tuple returned is the caller's to keep — tuples and their strings
// are carved from a types.Arena — unless the caller lent the scan (Lend):
// then a tuple is the caller's until its next call to Next, and only its
// strings are kept for good. Either promise ends at Reset, which re-aims
// the scanner at another file and carves that file's tuples from the old
// one's Values block; the zero HeapScanner is ready for Reset.
type HeapScanner struct {
	file    *HeapFile
	pageIdx int          // next page to load
	stride  int          // page-index step; 1 for a full scan
	meter   *CostMeter   // charged the pages it misses
	snap    *TxnSnapshot // visibility filter for stamped heaps; nil = undeleted

	recordReader
	examine func() error
	// lent is set by Lend. block is the Values block the tuples are
	// carved from after a recycle: every page's batch when lent, every
	// file's tuples after a Reset otherwise. sizeFor is set by a Reset of
	// a scanner that is not lent to the tuples its file holds: the first
	// of them sizes block for all.
	lent    bool
	block   []types.Value
	sizeFor int

	// The loaded page: one entry per record that passed, in slot order,
	// and the count of rejected records after the last of them.
	page    PageID
	batch   []scanEntry
	pos     int
	tail    int
	loadErr error // a decode or filter failure on this page, due after batch

	err    error
	cur    types.Tuple
	curRID RID
}

// RecordFilter is a predicate pushed into a scan or a fetcher, tested
// against the stored bytes of a record. plan.CompileFilter builds them.
type RecordFilter interface {
	// Test reports whether the record passes. shape is rec's, fitted:
	// the filter reads the columns it tests straight from their slots
	// (Shape.Word, types.View, types.CompareAt), each read checking its
	// own bytes. It runs under the page's pin and the heap's read lock, so
	// it must not call into the heap, and what it reads of rec is not to
	// be kept.
	Test(rec []byte, shape *types.Shape) (bool, error)
}

// recordReader is the state a reader — a scanner or a fetcher — turns
// stored records into tuples with: its projection, its pushed filter,
// its arena and the shape of the last record. Each reader runs fit,
// filter and materialise in its own loop, with no call per record of its
// own: a DML match scan is little more than that loop.
type recordReader struct {
	cols   []int // ascending ordinals to materialise; nil = every column
	filter RecordFilter

	mem types.Arena // what the tuples handed out are carved from
	// The shape of the last record read: records of one file mostly share
	// one, so fitting the next costs a comparison of its kind bytes.
	shape types.Shape
}

// fit makes the reader's shape rec's.
func (r *recordReader) fit(rec []byte) error {
	if r.shape.Fits(rec) {
		return nil
	}
	return r.shape.Fit(rec)
}

// scanEntry is one record of the loaded page that passed the filter.
type scanEntry struct {
	slot    int32
	skipped int32 // visible records the filter rejected since the entry before
	tup     types.Tuple
}

// WithSnapshot filters a stamped heap's scan to the versions visible
// to snap, returning the scanner for chaining. No effect on unstamped
// heaps.
func (s *HeapScanner) WithSnapshot(snap *TxnSnapshot) *HeapScanner {
	s.snap = snap
	return s
}

// WithFilter pushes a predicate into the scan: Next returns only the
// visible tuples that pass it. The scanner tests a record where it lies
// on the page, and builds a tuple only for a record that passed.
func (s *HeapScanner) WithFilter(filter RecordFilter) *HeapScanner {
	s.filter = filter
	return s
}

// WithColumns projects the scan: Next returns tuples holding only the
// columns at the given ordinals (ascending), in that order — len(cols)
// values each, carved at that width — and the bytes of every other
// column are not touched at all. A column only the filter reads is
// tested on the page and never leaves the scan.
// Nil, the default, is every column.
func (s *HeapScanner) WithColumns(cols []int) *HeapScanner {
	s.cols = cols
	return s
}

// OnExamine registers fn to be called once for every visible tuple the
// scan walks past, in storage order, whether or not the filter passes
// it — immediately before the tuple is returned or skipped, and with no
// lock or pin held. All of a page's calls are made before the next page
// is loaded. An error from fn ends the scan and is reported by Err. The
// executor charges its per-tuple cost, polls for cancellation and hits
// its fault site here, so that pushing a filter into the scan moves none
// of them.
func (s *HeapScanner) OnExamine(fn func() error) *HeapScanner {
	s.examine = fn
	return s
}

// Lend is the caller's promise to keep no tuple past its next call to
// Next, and returns the scanner for chaining. When the scanner loads a
// page it then clears the tuples of the page before and carves the new
// ones from one Values block it reuses page after page
// (types.Arena.Recycle), so a scan of any length allocates a few blocks
// instead of one or more a page — and, re-aimed by Reset, a scan of any
// number of files does too. The clearing is there so that a caller
// that breaks the promise reads NULLs or another row, a wrong answer a
// differential test catches. The strings of a lent tuple are still the
// caller's to keep.
func (s *HeapScanner) Lend() *HeapScanner {
	s.lent = true
	return s
}

// Reset re-aims the scanner at the first page of h, as h.Scan() would
// start, and returns it for chaining: it takes h's pages, a stride of 1
// and h's meter, so it pins and charges what a fresh scan does. It keeps
// its filter, projection, snapshot, hook, lending and the memory a scan
// grows into: the batch, the record shape and the arena.
//
// Reset is also the caller's promise that it keeps no tuple the scanner
// returned before, and has cleared those it held, value by value: the
// scanner carves h's tuples from the Values block of the file before
// (types.Arena.Recycle). A lent scanner clears its last page's tuples
// itself, so its caller, holding none, has nothing to clear. A scanner
// that is not lent leaves every tuple it returned to its caller, and
// carves all of h's from one block, sized for them at the first: so a
// build side read a partition at a time allocates a block or two per
// join, not blocks per partition. Strings are never recycled.
func (s *HeapScanner) Reset(h *HeapFile) *HeapScanner {
	if s.lent {
		s.recycle()
	} else {
		s.sizeFor = int(h.NumTuples())
	}
	s.file, s.pageIdx, s.stride, s.meter = h, 0, 1, h.meter
	s.batch, s.pos, s.tail, s.loadErr, s.err, s.cur = s.batch[:0], 0, 0, nil, nil, nil
	return s
}

// recycle clears the loaded page's tuples and makes their block the one
// the next are carved from. Only a lent scanner calls it.
func (s *HeapScanner) recycle() {
	used := 0
	for _, e := range s.batch {
		used += len(e.tup)
		clear(e.tup)
	}
	s.block = s.mem.Recycle(s.block, used)
}

// Next advances to the next visible tuple that passes the filter,
// returning false at the end of the file or on error.
func (s *HeapScanner) Next() bool {
	if s.err != nil {
		return false
	}
	for {
		if s.pos < len(s.batch) {
			e := &s.batch[s.pos]
			s.pos++
			if !s.examined(int(e.skipped) + 1) {
				return false
			}
			s.cur, s.curRID = e.tup, RID{Page: s.page, Slot: int(e.slot)}
			return true
		}
		if !s.examined(s.tail) {
			return false
		}
		s.tail = 0
		if s.err = s.loadErr; s.err != nil || !s.loadPage() {
			return false
		}
	}
}

// examined runs the OnExamine hook for n records, reporting false once
// it fails.
func (s *HeapScanner) examined(n int) bool {
	for ; n > 0 && s.examine != nil; n-- {
		if s.err = s.examine(); s.err != nil {
			return false
		}
	}
	return true
}

// loadPage replaces the batch with the next page's records that pass,
// reporting false at the end of the file or on a pin failure. A record
// that fails to decode, or on which the filter fails, ends the batch:
// what preceded it is still served, then loadErr. A lent scanner clears
// the old batch's tuples and carves the new ones where they lay.
func (s *HeapScanner) loadPage() bool {
	h := s.file
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s.pageIdx >= len(h.pages) {
		return false
	}
	id := h.pages[s.pageIdx]
	buf, err := h.pool.PinMetered(id, s.meter)
	if err != nil {
		s.err = err
		return false
	}
	defer h.pool.Unpin(id)
	s.pageIdx += s.stride
	if s.lent {
		s.recycle()
	}
	s.page, s.batch, s.pos = id, s.batch[:0], 0
	page := LoadSlottedPage(buf)
	skipped := 0
	for slot, n := 0, page.NumSlots(); slot < n; slot++ {
		rec := page.live(slot)
		if rec == nil {
			continue
		}
		if h.stamped {
			xmin, xmax := decodeStamp(rec)
			if !versionVisible(s.snap, xmin, xmax) {
				continue
			}
			rec = rec[stampSize:]
		}
		// A record whose header does not parse, or that lacks or has
		// damaged a projected column, fails before it is examined; one
		// the filter fails on — too narrow for a column it reads, or
		// damaged there — is examined, and fails after what preceded it.
		if s.loadErr = s.fit(rec); s.loadErr != nil {
			break
		}
		if s.filter != nil {
			if pass, err := s.filter.Test(rec, &s.shape); !pass || err != nil {
				skipped++
				if s.loadErr = err; err != nil {
					break
				}
				continue
			}
		}
		if s.sizeFor > 0 {
			// The first tuple since a Reset: the file's tuples are as wide.
			width := len(s.cols)
			if s.cols == nil {
				width = s.shape.Width()
			}
			s.block = s.mem.Recycle(s.block, s.sizeFor*width)
			s.sizeFor = 0
		}
		// left bounds the tuples still to come: the page's slots from
		// this record on.
		tup, err := s.mem.Materialize(rec, &s.shape, s.cols, n-slot)
		if s.loadErr = err; err != nil {
			break
		}
		s.batch = append(s.batch, scanEntry{slot: int32(slot), skipped: int32(skipped), tup: tup})
		skipped = 0
	}
	s.tail = skipped
	return true
}

// Tuple returns the current tuple after a successful Next.
func (s *HeapScanner) Tuple() types.Tuple { return s.cur }

// RID returns the current tuple's record ID.
func (s *HeapScanner) RID() RID { return s.curRID }

// Err returns the first error encountered, if any.
func (s *HeapScanner) Err() error { return s.err }
