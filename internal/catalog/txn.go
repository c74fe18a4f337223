package catalog

import (
	"fmt"
	"sync"

	"repro/internal/storage"
	"repro/internal/types"
)

// Txn is one write transaction against the catalog: a storage-level MVCC
// transaction plus per-table deltas of inserted and deleted tuples, so
// commit can maintain statistics incrementally without rescanning.
//
// Visibility follows snapshot isolation: the transaction's own writes
// are visible to it immediately; other transactions see them only after
// Commit. Conflicts are first-writer-wins — deleting a version another
// transaction already deleted (committed or in flight) fails with
// storage.ErrWriteConflict, and the caller must Abort.
type Txn struct {
	cat   *Catalog
	inner *storage.Txn

	mu     sync.Mutex
	deltas map[*Table]*tableDelta
	done   bool
}

// tableDelta accumulates one transaction's net effect on one table.
type tableDelta struct {
	inserted []types.Tuple
	rids     []storage.RID // where each inserted version lives
	deleted  []types.Tuple
	bytes    int64 // encoded bytes of inserted minus deleted tuples
}

// BeginTxn starts a write transaction with a fresh snapshot.
func (c *Catalog) BeginTxn() *Txn {
	return &Txn{cat: c, inner: c.txns.Begin(), deltas: make(map[*Table]*tableDelta)}
}

// BeginRead starts a read-only transaction: a registered snapshot that
// pins the GC horizon for the duration of a query. End it with
// (*storage.Txn).End.
func (c *Catalog) BeginRead() *storage.Txn {
	return c.txns.BeginRead()
}

// ID returns the underlying transaction ID.
func (tx *Txn) ID() storage.TxnID { return tx.inner.ID() }

// Snapshot returns the transaction's visibility snapshot.
func (tx *Txn) Snapshot() *storage.TxnSnapshot { return tx.inner.Snapshot() }

func (tx *Txn) delta(t *Table) *tableDelta {
	d := tx.deltas[t]
	if d == nil {
		d = &tableDelta{}
		tx.deltas[t] = d
	}
	return d
}

// Insert adds a tuple version to the table, visible to this transaction
// and, after Commit, to later snapshots. Indexes are maintained eagerly:
// other snapshots' fetches skip the entry until the version is visible
// to them, and Abort removes it.
func (tx *Txn) Insert(t *Table, tup types.Tuple) error {
	if t.Temp || !t.Heap.Stamped() {
		return fmt.Errorf("catalog: table %q does not accept transactional writes", t.Name)
	}
	if len(tup) != t.Schema.Len() {
		return fmt.Errorf("catalog: tuple arity %d does not match %s%s", len(tup), t.Name, t.Schema)
	}
	rid, err := tx.inner.InsertTuple(t.Heap, tup)
	if err != nil {
		return err
	}
	for col, idx := range t.Indexes {
		idx.Tree.Insert(tup[col], rid)
	}
	tx.mu.Lock()
	d := tx.delta(t)
	d.inserted = append(d.inserted, tup)
	d.rids = append(d.rids, rid)
	d.bytes += int64(types.EncodedSize(tup))
	tx.mu.Unlock()
	return nil
}

// Delete marks the version at rid deleted by this transaction. tup must
// be the tuple stored there (the executor has just fetched it); it feeds
// the stats delta without a re-read. Returns storage.ErrWriteConflict if
// another transaction already deleted the version.
func (tx *Txn) Delete(t *Table, rid storage.RID, tup types.Tuple) error {
	if err := tx.inner.DeleteTuple(t.Heap, rid); err != nil {
		return err
	}
	tx.mu.Lock()
	d := tx.delta(t)
	d.deleted = append(d.deleted, tup)
	d.bytes -= int64(types.EncodedSize(tup))
	tx.mu.Unlock()
	return nil
}

// Rows returns the number of row versions this transaction has written
// (inserts plus deletes; an update counts as both).
func (tx *Txn) Rows() int64 {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	var n int64
	for _, d := range tx.deltas {
		n += int64(len(d.inserted) + len(d.deleted))
	}
	return n
}

// Commit publishes the transaction's writes. Statistics are maintained
// first — cardinality and average tuple size shifted by the delta,
// min/max extended, histograms adjusted bucket-wise, FM sketches fed the
// inserted values — then each touched table's version and the catalog's
// global StatsVersion are bumped (exactly once per committing write
// transaction), and finally the transaction deactivates, making its
// versions visible. Readers therefore never see new data with pre-write
// statistics claiming it does not exist.
func (tx *Txn) Commit() {
	tx.mu.Lock()
	deltas := tx.deltas
	tx.deltas = nil
	wrote := false
	if !tx.done {
		for _, d := range deltas {
			if len(d.inserted) > 0 || len(d.deleted) > 0 {
				wrote = true
			}
		}
	}
	tx.done = true
	tx.mu.Unlock()
	for t, d := range deltas {
		if len(d.inserted) == 0 && len(d.deleted) == 0 {
			continue
		}
		t.applyDelta(d)
		t.version.Add(1)
	}
	if wrote {
		tx.cat.version.Add(1)
	}
	tx.inner.Commit()
}

// Abort physically undoes the transaction's writes, drops the index
// entries of the versions it inserted, and deactivates it. Statistics
// are untouched — they were never updated for in-flight writes.
func (tx *Txn) Abort() error {
	tx.mu.Lock()
	deltas := tx.deltas
	tx.deltas = nil
	tx.done = true
	tx.mu.Unlock()
	err := tx.inner.Abort()
	for t, d := range deltas {
		for i, tup := range d.inserted {
			for col, idx := range t.Indexes {
				idx.Tree.Delete(tup[col], d.rids[i])
			}
		}
	}
	return err
}

// applyDelta folds a committed transaction's per-table delta into the
// table's statistics under the stats lock. Column stats are maintained
// copy-on-write: readers holding the old *ColumnStats keep a consistent
// (if instantly stale) view.
func (t *Table) applyDelta(d *tableDelta) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()

	oldCard := t.Cardinality
	net := float64(len(d.inserted) - len(d.deleted))
	newCard := oldCard + net
	if newCard < 0 {
		newCard = 0
	}
	totalBytes := t.AvgTupleBytes*oldCard + float64(d.bytes)
	t.Cardinality = newCard
	if newCard > 0 && totalBytes > 0 {
		t.AvgTupleBytes = totalBytes / newCard
	}
	t.UpdatesSinceAnalyze += int64(len(d.inserted) + len(d.deleted))

	if len(t.ColStats) == 0 {
		return
	}
	newStats := make(map[int]*ColumnStats, len(t.ColStats))
	for col, cs := range t.ColStats {
		newStats[col] = cs.withDelta(col, d, oldCard, newCard)
	}
	t.ColStats = newStats
}

// withDelta returns a copy of the column stats adjusted for a committed
// delta that moved the table from oldCard to newCard rows. The receiver
// is never mutated.
func (cs *ColumnStats) withDelta(col int, d *tableDelta, oldCard, newCard float64) *ColumnStats {
	if cs == nil {
		return nil
	}
	n := &ColumnStats{
		Distinct: cs.Distinct,
		Min:      cs.Min,
		Max:      cs.Max,
		NullFrac: cs.NullFrac,
		AvgWidth: cs.AvgWidth,
		nulls:    cs.nulls,
		Sketch:   cs.Sketch,
		Hist:     cs.Hist,
	}
	if n.Hist != nil {
		n.Hist = n.Hist.Clone()
	}
	// The column's total width moves as the table's total bytes do.
	width := cs.AvgWidth * oldCard
	for _, tup := range d.inserted {
		v := tup[col]
		width += float64(v.EncodedSize())
		if v.IsNull() {
			n.nulls++
			continue
		}
		if n.Min.IsNull() || v.Compare(n.Min) < 0 {
			n.Min = v
		}
		if n.Max.IsNull() || v.Compare(n.Max) > 0 {
			n.Max = v
		}
		if n.Hist != nil {
			n.Hist.AddValue(v)
		}
		if h := v.Hash(); n.Sketch != nil && !n.Sketch.Holds(h) {
			// Copied on the first value new to it: a reader may hold cs.
			if n.Sketch == cs.Sketch {
				n.Sketch = n.Sketch.Clone()
			}
			n.Sketch.AddHash(h)
		}
	}
	for _, tup := range d.deleted {
		v := tup[col]
		width -= float64(v.EncodedSize())
		if v.IsNull() {
			if n.nulls > 0 {
				n.nulls--
			}
			continue
		}
		// Min/Max and the sketch cannot shrink without a rescan; the
		// histogram sheds the count.
		if n.Hist != nil {
			n.Hist.RemoveValue(v)
		}
	}
	if n.Sketch != nil {
		if est := n.Sketch.Estimate(); est > n.Distinct {
			n.Distinct = est
		}
	}
	if newCard > 0 {
		n.NullFrac = n.nulls / newCard
		if n.NullFrac > 1 {
			n.NullFrac = 1
		}
		if cs.AvgWidth > 0 && width > 0 {
			n.AvgWidth = width / newCard
		}
	} else {
		n.NullFrac = 0
	}
	return n
}
