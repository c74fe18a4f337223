package storage

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/types"
)

// TxnID identifies a transaction. IDs are dense, monotonically
// increasing, and never reused within a process. ID 0 is reserved as
// the "frozen" stamp: tuples bulk-loaded outside any transaction carry
// xmin 0 and are visible to every snapshot.
type TxnID uint32

// ErrWriteConflict is returned when a transaction tries to delete or
// update a tuple version another transaction has already deleted —
// the first-writer-wins rule of snapshot isolation. The losing
// transaction must abort.
var ErrWriteConflict = errors.New("storage: write conflict (tuple already deleted by a concurrent transaction)")

// TxnSnapshot captures the set of transactions visible to one query or
// transaction: everything that committed before the snapshot was taken,
// plus the holder's own writes. The representation is the classic
// (xmin, xmax, active-list) triple.
type TxnSnapshot struct {
	// Self is the holder's own transaction ID (0 for pure readers).
	Self TxnID
	// XMin is the smallest transaction ID that was active when the
	// snapshot was taken; every ID below it has finished.
	XMin TxnID
	// XMax is the first transaction ID not yet assigned at snapshot
	// time; every ID at or above it is invisible.
	XMax TxnID
	// Active holds the IDs in [XMin, XMax) that were in flight at
	// snapshot time (excluding Self).
	Active map[TxnID]struct{}
}

// committed reports whether transaction x committed before this
// snapshot was taken. Aborted transactions physically undo their
// writes before deactivating, so any stamp still referencing a
// finished transaction references a committed one.
func (s *TxnSnapshot) committed(x TxnID) bool {
	if x >= s.XMax {
		return false
	}
	_, active := s.Active[x]
	return !active
}

// Sees reports whether a tuple version stamped (xmin, xmax) is visible
// to the snapshot: its inserter must be frozen, the holder itself, or
// committed before the snapshot; and it must not have been deleted by
// the holder or by a transaction committed before the snapshot.
func (s *TxnSnapshot) Sees(xmin, xmax TxnID) bool {
	if xmin != 0 && xmin != s.Self && !s.committed(xmin) {
		return false
	}
	if xmax == 0 {
		return true
	}
	if xmax == s.Self {
		return false
	}
	return !s.committed(xmax)
}

// writeKind tags one entry of a transaction's undo log.
type writeKind uint8

const (
	wroteInsert writeKind = iota
	wroteDelete
)

type writeRec struct {
	heap *HeapFile
	rid  RID
	kind writeKind
}

// Txn is one transaction: a snapshot plus an undo log of physical
// writes. Read-only transactions (BeginRead) carry an empty log and
// exist to pin the garbage-collection horizon while they scan.
type Txn struct {
	m    *TxnManager
	id   TxnID
	snap *TxnSnapshot

	mu     sync.Mutex
	writes []writeRec
	done   bool
}

// ID returns the transaction's identifier (0 for read-only).
func (t *Txn) ID() TxnID { return t.id }

// Snapshot returns the visibility snapshot acquired at Begin.
func (t *Txn) Snapshot() *TxnSnapshot { return t.snap }

// TxnManager hands out transaction IDs and snapshots, tracks the
// active set for visibility and conflict decisions, and computes the
// garbage-collection horizon below which dead versions can be swept.
type TxnManager struct {
	mu     sync.Mutex
	next   TxnID
	active map[TxnID]*Txn
	// readers counts registered read-only transactions per snapshot
	// XMin, so the horizon respects long-running queries.
	readers map[*Txn]TxnID
}

// NewTxnManager returns an empty manager. The first transaction gets
// ID 1; 0 stays reserved for frozen (bulk-loaded) tuples.
func NewTxnManager() *TxnManager {
	return &TxnManager{
		next:    1,
		active:  make(map[TxnID]*Txn),
		readers: make(map[*Txn]TxnID),
	}
}

// snapshotLocked builds a snapshot for self from current state.
func (m *TxnManager) snapshotLocked(self TxnID) *TxnSnapshot {
	s := &TxnSnapshot{Self: self, XMin: m.next, XMax: m.next}
	if len(m.active) > 0 {
		s.Active = make(map[TxnID]struct{}, len(m.active))
		for id := range m.active {
			if id == self {
				continue
			}
			s.Active[id] = struct{}{}
			if id < s.XMin {
				s.XMin = id
			}
		}
	}
	return s
}

// Begin starts a read-write transaction with a fresh snapshot.
func (m *TxnManager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	t := &Txn{m: m, id: id}
	m.active[id] = t
	t.snap = m.snapshotLocked(id)
	// The transaction's own ID is the snapshot's upper bound.
	if t.snap.XMin > id {
		t.snap.XMin = id
	}
	return t
}

// BeginRead starts a read-only transaction: a snapshot registered with
// the manager so the GC horizon cannot advance past data it may still
// read. End it with (*Txn).End.
func (m *TxnManager) BeginRead() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{m: m}
	t.snap = m.snapshotLocked(0)
	m.readers[t] = t.snap.XMin
	return t
}

// LatestSnapshot returns an unregistered snapshot of current commit
// state — for internal scans (ANALYZE, index builds) that run under
// locks preventing concurrent writes from starting.
func (m *TxnManager) LatestSnapshot() *TxnSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(0)
}

// IsActive reports whether a transaction ID is currently in flight.
func (m *TxnManager) IsActive(id TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.active[id]
	return ok
}

// Horizon returns the oldest transaction ID any live snapshot might
// still consider active. A version deleted by a committed transaction
// below the horizon is invisible to every current and future snapshot
// and can be physically removed.
func (m *TxnManager) Horizon() TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.next
	for id, t := range m.active {
		if id < h {
			h = id
		}
		if t.snap != nil && t.snap.XMin < h {
			h = t.snap.XMin
		}
	}
	for _, xmin := range m.readers {
		if xmin < h {
			h = xmin
		}
	}
	return h
}

// TxnInfo describes one in-flight transaction for introspection
// (the mqr.txns system table).
type TxnInfo struct {
	ID TxnID
	// Writes is the number of undo records the transaction holds —
	// row versions it has inserted or delete-stamped so far.
	Writes int
	// Reader marks registered read-only snapshots.
	Reader bool
}

// ActiveTxns lists in-flight transactions — read-write ones plus
// registered read-only snapshots — sorted by ID.
func (m *TxnManager) ActiveTxns() []TxnInfo {
	m.mu.Lock()
	txns := make([]*Txn, 0, len(m.active)+len(m.readers))
	for _, t := range m.active {
		txns = append(txns, t)
	}
	readers := make([]TxnID, 0, len(m.readers))
	for _, xmin := range m.readers {
		readers = append(readers, xmin)
	}
	m.mu.Unlock()

	out := make([]TxnInfo, 0, len(txns)+len(readers))
	for _, t := range txns {
		t.mu.Lock()
		w := len(t.writes)
		t.mu.Unlock()
		out = append(out, TxnInfo{ID: t.id, Writes: w})
	}
	for _, xmin := range readers {
		out = append(out, TxnInfo{ID: xmin, Reader: true})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return !out[i].Reader && out[j].Reader
	})
	return out
}

// InsertTuple appends tup as a new version owned by t and logs it for
// undo.
func (t *Txn) InsertTuple(h *HeapFile, tup types.Tuple) (RID, error) {
	rid, err := h.AppendVersion(tup, t.id)
	if err != nil {
		return RID{}, err
	}
	t.mu.Lock()
	t.writes = append(t.writes, writeRec{heap: h, rid: rid, kind: wroteInsert})
	t.mu.Unlock()
	return rid, nil
}

// DeleteTuple marks the version at rid as deleted by t (first writer
// wins: if another transaction already stamped it, ErrWriteConflict is
// returned and t must abort).
func (t *Txn) DeleteTuple(h *HeapFile, rid RID) error {
	if err := h.SetXmax(rid, t.id); err != nil {
		return err
	}
	t.mu.Lock()
	t.writes = append(t.writes, writeRec{heap: h, rid: rid, kind: wroteDelete})
	t.mu.Unlock()
	return nil
}

// Commit makes the transaction's writes visible to future snapshots by
// removing it from the active set. Stamps are already on the pages; no
// further page writes are needed.
func (t *Txn) Commit() {
	t.finish()
}

// Abort physically undoes the transaction's writes — deleting inserted
// versions, clearing delete stamps — and then deactivates it. The undo
// happens before deactivation, so no snapshot can ever observe an
// aborted transaction as committed.
func (t *Txn) Abort() error {
	t.mu.Lock()
	writes := t.writes
	t.writes = nil
	t.mu.Unlock()
	var first error
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		var err error
		switch w.kind {
		case wroteInsert:
			err = w.heap.DeleteSlot(w.rid)
		case wroteDelete:
			err = w.heap.ClearXmax(w.rid, t.id)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	t.finish()
	return first
}

// End deactivates a read-only transaction, releasing its hold on the
// GC horizon. Calling End on a writer is equivalent to Commit.
func (t *Txn) End() { t.finish() }

func (t *Txn) finish() {
	if t.m == nil {
		return
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	if t.id != 0 {
		delete(t.m.active, t.id)
	} else {
		delete(t.m.readers, t)
	}
}
