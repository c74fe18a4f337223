// Package catalog maintains table metadata and the system statistics the
// optimizer estimates from: per-table cardinality and page counts, and
// per-column histograms, distinct counts, and min/max values.
//
// The catalog also tracks update activity since the last ANALYZE, which
// feeds the paper's inaccuracy-potential rule that stale statistics are
// one level less trustworthy (§2.5).
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/histogram"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/types"
)

// ColumnStats summarizes one column's value distribution. Once published
// in a table's ColStats map the struct is immutable: incremental
// maintenance clones it, mutates the clone, and swaps the pointer under
// the table's stats lock, so readers holding an old pointer stay safe.
type ColumnStats struct {
	Hist     *histogram.Histogram // nil if no histogram was built
	Distinct float64              // 0 if unknown
	Min, Max types.Value          // NULL if unknown
	NullFrac float64
	// AvgWidth is the column's mean Value.EncodedSize over all rows,
	// NULLs included — its share of AvgTupleBytes, in the unit hash
	// tables, sort buffers and spills are accounted in. 0 if unknown.
	AvgWidth float64

	// Sketch is the FM distinct-count sketch seeded by ANALYZE and fed
	// by committed inserts, so Distinct tracks write activity between
	// full scans (paper [6]).
	Sketch *sketch.HybridDistinct

	// nulls is the absolute null count backing NullFrac, needed to
	// maintain the fraction incrementally.
	nulls float64
}

// HasHistogram reports whether a histogram is available.
func (cs *ColumnStats) HasHistogram() bool {
	return cs != nil && cs.Hist != nil && len(cs.Hist.Buckets) > 0
}

// Index is a B+tree over one column plus its clustering factor: the
// fraction of consecutive heap tuples whose key is non-decreasing. A
// clustering factor near 1 means index-ordered access walks the heap
// nearly sequentially, so repeated fetches hit the same pages — the
// classic System-R clustered-index distinction the cost model needs.
type Index struct {
	Tree       *storage.BTree
	Clustering float64
}

// Table is one base relation: schema, heap storage, indexes, and
// statistics.
//
// Statistics fields (Cardinality, AvgTupleBytes, ColStats,
// UpdatesSinceAnalyze) are protected by statsMu because committed DML
// updates them while concurrent queries plan against them. Query-path
// readers must use the Stats, ColStat, and StaleStats accessors; direct
// field access remains safe only in single-threaded contexts (bulk
// loading, temp tables private to one query, tests).
type Table struct {
	Name   string
	Schema *types.Schema
	Heap   *storage.HeapFile

	// Indexes maps column ordinal to the index over that column. The
	// map is populated under the catalog's schema-level exclusion
	// (CREATE INDEX); the trees themselves are internally locked.
	Indexes map[int]*Index

	statsMu sync.RWMutex

	// Stats as of the last Analyze plus incremental maintenance by
	// committed writes. Guarded by statsMu.
	Cardinality   float64
	AvgTupleBytes float64
	ColStats      map[int]*ColumnStats

	// UpdatesSinceAnalyze counts tuples inserted or deleted since
	// statistics were last collected. Guarded by statsMu.
	UpdatesSinceAnalyze int64

	// version counts statistics changes to this table alone: ANALYZE,
	// CREATE INDEX, and every committed write transaction touching it.
	// The plan cache keys entry validity on the versions of exactly the
	// tables a plan references.
	version atomic.Int64

	// Temp marks a table registered via RegisterTemp: a materialized
	// intermediate private to one query. Temp tables do not bump the
	// catalog's statistics version — they come and go on every plan
	// switch and are invisible to other queries' plans.
	Temp bool

	// Virtual, when non-nil, makes the table a system view: a scan
	// calls the provider for a point-in-time row set instead of reading
	// the heap (which stays an empty placeholder for the planner). The
	// provider must be safe for concurrent calls and must not acquire
	// engine-wide locks a running query could hold.
	Virtual func() []types.Tuple
}

// NumPages returns the table's size in pages.
func (t *Table) NumPages() float64 { return float64(t.Heap.NumPages()) }

// Version returns the table's statistics version, which increases on
// ANALYZE, CREATE INDEX, and every committed write transaction that
// touched the table.
func (t *Table) Version() int64 { return t.version.Load() }

// Stats returns the table's cardinality and average tuple size under the
// stats lock. This is the accessor the optimizer and re-optimizer use on
// the query path, where committed writes may update stats concurrently.
func (t *Table) Stats() (card, avgBytes float64) {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	return t.Cardinality, t.AvgTupleBytes
}

// KindWidth is the encoded width assumed for a column of the kind when
// no statistics give a measured one.
func KindWidth(k types.Kind) float64 {
	if k == types.KindString {
		return 24
	}
	return 9
}

// AvgBytes returns the average encoded size of a tuple holding only the
// columns at cols (nil = every column), 0 if the table's tuple size is
// unknown. With a measured width for every kept column it is the tuple
// header plus their sum; otherwise — a temp table, a table analyzed on
// other columns — AvgTupleBytes is split by the kinds' assumed widths.
func (t *Table) AvgBytes(cols []int) float64 {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	if cols == nil {
		return t.AvgTupleBytes
	}
	measured, kept, all := float64(types.TupleHeaderSize), 0.0, 0.0
	for _, c := range cols {
		cs := t.ColStats[c]
		if cs == nil || cs.AvgWidth <= 0 {
			measured = 0
			break
		}
		measured += cs.AvgWidth
	}
	if measured > 0 {
		return measured
	}
	for _, c := range cols {
		kept += KindWidth(t.Schema.Columns[c].Kind)
	}
	for _, c := range t.Schema.Columns {
		all += KindWidth(c.Kind)
	}
	return t.AvgTupleBytes * kept / all
}

// ColStat returns the column's statistics under the stats lock, or nil
// if none were collected. The returned struct is immutable — maintenance
// replaces the pointer rather than mutating in place.
func (t *Table) ColStat(col int) *ColumnStats {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	return t.ColStats[col]
}

// StaleStats reports whether update activity since the last ANALYZE is
// significant — more than 10% of the analyzed cardinality — which bumps
// every inaccuracy potential one level (§2.5).
func (t *Table) StaleStats() bool {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	if t.Cardinality <= 0 {
		return t.UpdatesSinceAnalyze > 0
	}
	return float64(t.UpdatesSinceAnalyze) > 0.1*t.Cardinality
}

// Insert appends a tuple to the table outside any transaction (frozen,
// visible to every snapshot), maintains indexes, and counts update
// activity. This is the bulk-load path; transactional writes go through
// (*Txn).Insert.
func (t *Table) Insert(tup types.Tuple) error {
	if len(tup) != t.Schema.Len() {
		return fmt.Errorf("catalog: tuple arity %d does not match %s%s", len(tup), t.Name, t.Schema)
	}
	rid, err := t.Heap.Append(tup)
	if err != nil {
		return err
	}
	for col, idx := range t.Indexes {
		idx.Tree.Insert(tup[col], rid)
	}
	t.statsMu.Lock()
	t.UpdatesSinceAnalyze++
	t.statsMu.Unlock()
	return nil
}

// Catalog is the set of tables in a database.
type Catalog struct {
	mu     sync.RWMutex
	pool   *storage.BufferPool
	tables map[string]*Table
	txns   *storage.TxnManager

	// version counts persistent-statistics changes: CREATE TABLE, DROP
	// of a non-temp table, CREATE INDEX, ANALYZE, and every committed
	// write transaction. It is an observability counter; a running
	// query reads its own snapshot and never consults it.
	version atomic.Int64

	// schemaVersion counts structural changes only — CREATE/DROP TABLE
	// and CREATE INDEX — so the plan cache can separate "the world
	// changed shape" (invalidate everything) from "one table's stats
	// moved" (invalidate only plans referencing it).
	schemaVersion atomic.Int64
}

// StatsVersion returns the current persistent-statistics version. It
// increases monotonically whenever DDL, ANALYZE, or a committing write
// transaction changes what the optimizer would see; temp-table
// registration does not affect it.
func (c *Catalog) StatsVersion() int64 { return c.version.Load() }

// SchemaVersion returns the structural version: CREATE/DROP TABLE and
// CREATE INDEX bump it, writes and ANALYZE do not.
func (c *Catalog) SchemaVersion() int64 { return c.schemaVersion.Load() }

// TableVersion returns the named table's statistics version, or -1 if no
// such table exists (so cached plans referencing a dropped-and-recreated
// table never validate against the new table's counter by accident).
func (c *Catalog) TableVersion(name string) int64 {
	t, err := c.Table(name)
	if err != nil {
		return -1
	}
	return t.Version()
}

// New returns an empty catalog over the given buffer pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{
		pool:   pool,
		tables: make(map[string]*Table),
		txns:   storage.NewTxnManager(),
	}
}

// Pool returns the buffer pool tables are stored in.
func (c *Catalog) Pool() *storage.BufferPool { return c.pool }

// Txns returns the catalog's transaction manager.
func (c *Catalog) Txns() *storage.TxnManager { return c.txns }

// CreateTable registers a new empty table. Column table qualifiers are
// forced to the table name.
func (c *Catalog) CreateTable(name string, schema *types.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.addLocked(name, schema, storage.NewStampedHeapFile(c.pool))
	if err == nil {
		c.version.Add(1)
		c.schemaVersion.Add(1)
	}
	return t, err
}

// addLocked registers a table of the given schema over heap, its column
// qualifiers forced to the table's name, unless the name is taken.
func (c *Catalog) addLocked(name string, schema *types.Schema, heap *storage.HeapFile) (*Table, error) {
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	cols := make([]types.Column, schema.Len())
	for i, col := range schema.Columns {
		col.Table = key
		cols[i] = col
	}
	t := &Table{
		Name:     key,
		Schema:   types.NewSchema(cols...),
		Heap:     heap,
		Indexes:  make(map[int]*Index),
		ColStats: make(map[int]*ColumnStats),
	}
	c.tables[key] = t
	return t, nil
}

// DropTable removes a table from the catalog. Its heap pages remain on
// the simulated disk unless the heap was a temp file.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, key)
	if !t.Temp {
		c.version.Add(1)
		c.schemaVersion.Add(1)
	}
	return t.Heap.Drop()
}

// RegisterTemp registers an already-populated heap file (a materialized
// intermediate result) as a queryable table. The re-optimizer uses this
// to make Temp1 visible to the re-submitted remainder query (§2.4).
func (c *Catalog) RegisterTemp(name string, schema *types.Schema, heap *storage.HeapFile) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.addLocked(name, schema, heap)
	if err != nil {
		return nil, err
	}
	t.Temp = true
	t.Cardinality = float64(heap.NumTuples())
	if heap.NumTuples() > 0 {
		t.AvgTupleBytes = float64(heap.ByteSize()) / float64(heap.NumTuples())
	}
	return t, nil
}

// RegisterVirtual registers a provider-backed system table (the mqr
// schema). The heap is an empty placeholder so planner arithmetic and
// vacuum walks see an ordinary (if tiny) table; the nominal cardinality
// gives the optimizer something nonzero to cost scans with. Unlike temp
// tables, virtual tables are permanent and visible to every session.
func (c *Catalog) RegisterVirtual(name string, schema *types.Schema, provider func() []types.Tuple) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if old, ok := c.tables[key]; ok {
		if old.Virtual == nil {
			return nil, fmt.Errorf("catalog: table %q already exists", name)
		}
		// Re-registration rebinds the provider (like the metrics
		// registry's func-backed series): a second engine built over a
		// shared catalog must not read the first one's torn-down state.
		// Callers must rebind before running queries — scans read the
		// provider without a lock.
		old.Virtual = provider
		return old, nil
	}
	t, err := c.addLocked(name, schema, storage.NewHeapFile(c.pool))
	if err != nil {
		return nil, err
	}
	t.Virtual = provider
	t.Cardinality = 16
	t.AvgTupleBytes = 64
	return t, nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// TempTables returns the names of all currently registered temp tables
// in sorted order. After a query ends — normally or aborted — none of
// its temps should remain; the leak-check tests assert on this.
func (c *Catalog) TempTables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for n, t := range c.tables {
		if t.Temp {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds a B+tree on the named column of the named table,
// charging build I/O to the disk's meter.
func (c *Catalog) CreateIndex(table, column string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	col, err := t.Schema.Resolve("", column)
	if err != nil {
		return err
	}
	if _, ok := t.Indexes[col]; ok {
		return fmt.Errorf("catalog: index on %s.%s already exists", table, column)
	}
	tree := storage.NewBTree(c.pool.Disk().Meter())
	// The tree keeps every key for good, so the scan emits nothing else:
	// a kept value pins the block it was carved from, and these blocks
	// then hold keys only.
	s := t.Heap.Scan().WithSnapshot(c.txns.LatestSnapshot()).WithColumns([]int{col})
	// The clustering factor is measured during the build scan: the
	// fraction of heap-order transitions where the key does not
	// decrease. 1.0 means index order equals storage order, so
	// index-driven fetches walk the heap sequentially.
	var prev types.Value
	var total, ordered float64
	first := true
	for s.Next() {
		v := s.Tuple()[0]
		tree.Insert(v, s.RID())
		if !first {
			total++
			if v.Compare(prev) >= 0 {
				ordered++
			}
		}
		prev = v
		first = false
	}
	if s.Err() != nil {
		return s.Err()
	}
	clustering := 1.0
	if total > 0 {
		clustering = ordered / total
	}
	t.Indexes[col] = &Index{Tree: tree, Clustering: clustering}
	t.version.Add(1)
	c.version.Add(1)
	c.schemaVersion.Add(1)
	return nil
}

// AnalyzeOptions controls statistics collection.
type AnalyzeOptions struct {
	// Family selects the histogram family stored in the catalog.
	Family histogram.Family
	// Buckets is the number of histogram buckets (default 20).
	Buckets int
	// Columns restricts analysis to the named columns; nil means all.
	Columns []string
	// SkipHistograms computes only cardinality, min/max and distinct
	// counts — modelling a catalog with no histograms, the "high
	// inaccuracy potential" configuration.
	SkipHistograms bool
}

// Analyze scans a table once and refreshes its statistics.
func (c *Catalog) Analyze(table string, opts AnalyzeOptions) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	if opts.Buckets <= 0 {
		opts.Buckets = 20
	}
	// The analysed columns, as ascending ordinals: the scan loop walks
	// this list and indexes per-column slices by ordinal — no map, and no
	// growth by doubling, on the per-value path.
	ncols := t.Schema.Len()
	want := make([]bool, ncols)
	if opts.Columns == nil {
		for i := range want {
			want[i] = true
		}
	} else {
		for _, name := range opts.Columns {
			i, err := t.Schema.Resolve("", name)
			if err != nil {
				return err
			}
			want[i] = true
		}
	}
	var cols []int
	for i, w := range want {
		if w {
			cols = append(cols, i)
		}
	}

	rows := int(t.Heap.NumTuples()) // every version: at least the visible ones
	vals := make([][]types.Value, ncols)
	for _, col := range cols {
		vals[col] = make([]types.Value, 0, rows)
	}
	nulls := make([]float64, ncols)
	widths := make([]float64, ncols) // encoded bytes per column
	var count float64
	var bytes float64
	s := t.Heap.Scan().WithSnapshot(c.txns.LatestSnapshot())
	for s.Next() {
		tup := s.Tuple()
		count++
		bytes += float64(types.EncodedSize(tup))
		for _, col := range cols {
			v := tup[col]
			widths[col] += float64(v.EncodedSize())
			if v.IsNull() {
				nulls[col]++
				continue
			}
			vals[col] = append(vals[col], v)
		}
	}
	if s.Err() != nil {
		return s.Err()
	}

	// Build the new statistics off-lock, then publish atomically.
	newStats := make(map[int]*ColumnStats, len(cols))
	for _, col := range cols {
		cs := &ColumnStats{nulls: nulls[col]}
		vs := vals[col]
		if count > 0 {
			cs.NullFrac = nulls[col] / count
			cs.AvgWidth = widths[col] / count
		}
		if len(vs) > 0 {
			mn, mx := vs[0], vs[0]
			for _, v := range vs[1:] {
				if v.Compare(mn) < 0 {
					mn = v
				}
				if v.Compare(mx) > 0 {
					mx = v
				}
			}
			cs.Min, cs.Max = mn, mx
			h := histogram.Build(opts.Family, vs, opts.Buckets, 0)
			cs.Distinct = h.TotalDistinct
			if !opts.SkipHistograms {
				cs.Hist = h
			}
			// Seed the FM sketch with the scanned values so committed
			// inserts after this ANALYZE keep the distinct estimate
			// moving without another full scan.
			cs.Sketch = sketch.NewHybridDistinct(sketchThreshold, sketchBitmaps)
			for _, v := range vs {
				cs.Sketch.Add(v)
			}
		}
		newStats[col] = cs
	}

	t.statsMu.Lock()
	t.Cardinality = count
	if count > 0 {
		t.AvgTupleBytes = bytes / count
	}
	merged := make(map[int]*ColumnStats, len(t.ColStats)+len(newStats))
	for col, cs := range t.ColStats {
		merged[col] = cs
	}
	for col, cs := range newStats {
		merged[col] = cs
	}
	t.ColStats = merged
	t.UpdatesSinceAnalyze = 0
	t.statsMu.Unlock()
	t.version.Add(1)
	c.version.Add(1)
	return nil
}

// Sketch sizing for per-column distinct maintenance: exact up to 4096
// distinct values, then a 64-bitmap PCSA sketch (~10% standard error).
const (
	sketchThreshold = 4096
	sketchBitmaps   = 64
)

// Vacuum physically removes dead tuple versions — deleted by committed
// transactions below the GC horizon — from every non-temp table, and
// the index entries that point at them, so a key updated many times
// keeps one entry per version still on the heap. It returns the number
// of versions removed.
func (c *Catalog) Vacuum() (int64, error) {
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		if !t.Temp && t.Heap.Stamped() {
			tables = append(tables, t)
		}
	}
	c.mu.RUnlock()
	horizon := c.txns.Horizon()
	var removed int64
	for _, t := range tables {
		n, err := t.vacuum(horizon, c.txns.IsActive)
		removed += n
		if err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// vacuum sweeps t's heap, then deletes the swept versions' index
// entries. The entries go after the sweep has released the heap, so no
// lock of the tree is taken under the heap's: an index probe between
// the two finds the slots deleted and skips them.
func (t *Table) vacuum(horizon storage.TxnID, isActive func(storage.TxnID) bool) (int64, error) {
	cols := make([]int, 0, len(t.Indexes))
	for col := range t.Indexes {
		cols = append(cols, col)
	}
	if len(cols) == 0 {
		return t.Heap.Sweep(horizon, isActive, nil, nil)
	}
	slices.Sort(cols)
	type entry struct {
		rid  storage.RID
		keys types.Tuple
	}
	var swept []entry
	n, err := t.Heap.Sweep(horizon, isActive, cols, func(rid storage.RID, keys types.Tuple) {
		swept = append(swept, entry{rid, keys})
	})
	for _, e := range swept {
		for k, col := range cols {
			t.Indexes[col].Tree.Delete(e.keys[k], e.rid)
		}
	}
	return n, err
}

// DeadVersions counts tuple versions stamped deleted across all non-temp
// tables — committed-dead plus in-flight deletions. The differential
// fuzz harness asserts this drains to zero after quiescence and Vacuum.
func (c *Catalog) DeadVersions() (int64, error) {
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		if !t.Temp && t.Heap.Stamped() {
			tables = append(tables, t)
		}
	}
	c.mu.RUnlock()
	var total int64
	for _, t := range tables {
		n, err := t.Heap.DeadVersions()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
