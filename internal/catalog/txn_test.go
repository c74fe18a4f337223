package catalog

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/types"
)

func loadedTable(t *testing.T, c *Catalog, name string, rows int) *Table {
	t.Helper()
	tbl, err := c.CreateTable(name, rsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tup := types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewString(fmt.Sprintf("name-%d", i%50)),
		}
		if err := tbl.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Analyze(name, AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTxnCommitVisibilityAndRowCount(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 100)

	tx := c.BeginTxn()
	for i := 100; i < 120; i++ {
		tup := types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewString("new")}
		if err := tx.Insert(tbl, tup); err != nil {
			t.Fatal(err)
		}
	}
	if tx.Rows() != 20 {
		t.Errorf("Rows = %d, want 20", tx.Rows())
	}
	// Uncommitted: catalog stats unchanged.
	if card, _ := tbl.Stats(); card != 100 {
		t.Errorf("pre-commit cardinality = %.0f, want 100", card)
	}
	tx.Commit()
	if card, _ := tbl.Stats(); card != 120 {
		t.Errorf("post-commit cardinality = %.0f, want 120", card)
	}
	if tbl.UpdatesSinceAnalyze != 20 {
		t.Errorf("UpdatesSinceAnalyze = %d, want 20", tbl.UpdatesSinceAnalyze)
	}
}

// TestStatsVersionBumpsOncePerCommit is the satellite contract: the
// global statistics version moves exactly once per committing write
// transaction that wrote at least one row — not per statement, not per
// table — and not at all for empty or aborted transactions.
func TestStatsVersionBumpsOncePerCommit(t *testing.T) {
	c := newTestCatalog()
	r := loadedTable(t, c, "r", 50)
	s := loadedTable(t, c, "s", 50)

	v0 := c.StatsVersion()

	// Multi-table transaction: one global bump, one per-table bump each.
	rv0, sv0 := r.Version(), s.Version()
	tx := c.BeginTxn()
	for i := 0; i < 5; i++ {
		if err := tx.Insert(r, types.Tuple{types.NewInt(int64(100 + i)), types.NewInt(0), types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(s, types.Tuple{types.NewInt(int64(100 + i)), types.NewInt(0), types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if got := c.StatsVersion(); got != v0+1 {
		t.Errorf("StatsVersion = %d after multi-table commit, want %d", got, v0+1)
	}
	if r.Version() != rv0+1 || s.Version() != sv0+1 {
		t.Errorf("table versions = %d,%d want %d,%d", r.Version(), s.Version(), rv0+1, sv0+1)
	}

	// Empty transaction: no bump.
	c.BeginTxn().Commit()
	if got := c.StatsVersion(); got != v0+1 {
		t.Errorf("StatsVersion = %d after empty commit, want %d", got, v0+1)
	}

	// Aborted transaction: no bump.
	tx = c.BeginTxn()
	if err := tx.Insert(r, types.Tuple{types.NewInt(999), types.NewInt(0), types.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := c.StatsVersion(); got != v0+1 {
		t.Errorf("StatsVersion = %d after abort, want %d", got, v0+1)
	}
}

// TestIncrementalStatsTrackAnalyze writes a batch through transactions
// and checks the incrementally-maintained statistics stay within
// tolerance of a from-scratch ANALYZE over the same data.
func TestIncrementalStatsTrackAnalyze(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 500)

	// A write mix: 300 inserts extending the id domain, 100 deletes.
	tx := c.BeginTxn()
	for i := 500; i < 800; i++ {
		tup := types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewString(fmt.Sprintf("name-%d", i%50)),
		}
		if err := tx.Insert(tbl, tup); err != nil {
			t.Fatal(err)
		}
	}
	snap := tx.Snapshot()
	scan := tbl.Heap.Scan().WithSnapshot(snap)
	deleted := 0
	for scan.Next() && deleted < 100 {
		tup := scan.Tuple()
		if tup[0].Int() < 100 {
			if err := tx.Delete(tbl, scan.RID(), tup.Clone()); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if scan.Err() != nil {
		t.Fatal(scan.Err())
	}
	tx.Commit()

	// Capture the incrementally-maintained stats.
	incCard, incAvg := tbl.Stats()
	incID := tbl.ColStat(0)
	incGrp := tbl.ColStat(1)
	incName := tbl.ColStat(2)

	// Re-analyze from scratch over the same (post-write) data.
	if err := c.Analyze("r", AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
		t.Fatal(err)
	}
	freshCard, freshAvg := tbl.Stats()
	freshID := tbl.ColStat(0)
	freshGrp := tbl.ColStat(1)

	if incCard != freshCard {
		t.Errorf("cardinality: incremental %.0f vs fresh %.0f", incCard, freshCard)
	}
	if math.Abs(incAvg-freshAvg)/freshAvg > 0.05 {
		t.Errorf("avg tuple bytes: incremental %.1f vs fresh %.1f", incAvg, freshAvg)
	}
	// Min/Max extended by the out-of-range inserts.
	if incID.Max.Int() != freshID.Max.Int() {
		t.Errorf("id max: incremental %d vs fresh %d", incID.Max.Int(), freshID.Max.Int())
	}
	// FM-sketch-maintained distinct within 15% of the exact rebuild.
	if math.Abs(incID.Distinct-freshID.Distinct)/freshID.Distinct > 0.15 {
		t.Errorf("id distinct: incremental %.0f vs fresh %.0f", incID.Distinct, freshID.Distinct)
	}
	if math.Abs(incGrp.Distinct-freshGrp.Distinct)/math.Max(1, freshGrp.Distinct) > 0.5 {
		t.Errorf("grp distinct: incremental %.0f vs fresh %.0f", incGrp.Distinct, freshGrp.Distinct)
	}
	// Column widths are folded exactly, like the tuple size they add up
	// to: same sums, so the same means up to rounding.
	for col, inc := range []*ColumnStats{incID, incGrp, incName} {
		fresh := tbl.ColStat(col).AvgWidth
		if fresh <= 0 || math.Abs(inc.AvgWidth-fresh) > 1e-9*fresh {
			t.Errorf("column %d width: incremental %g vs fresh %g", col, inc.AvgWidth, fresh)
		}
	}
	if sum := float64(types.TupleHeaderSize) + incID.AvgWidth + incGrp.AvgWidth + incName.AvgWidth; math.Abs(sum-incAvg) > 1e-9*incAvg {
		t.Errorf("incremental widths add up to %g, AvgTupleBytes is %g", sum, incAvg)
	}
	// Histogram totals track the live row count.
	if math.Abs(incID.Hist.Total-freshID.Hist.Total)/freshID.Hist.Total > 0.05 {
		t.Errorf("id hist total: incremental %.0f vs fresh %.0f", incID.Hist.Total, freshID.Hist.Total)
	}
	// A committing transaction must not have mutated the previously
	// published stats structs in place (copy-on-write contract).
	if incID == freshID {
		t.Error("ColStat pointer unchanged by ANALYZE; expected republication")
	}
}

// TestCommitSharesAHeldSketch: a commit whose inserted values a
// column's distinct-count sketch already holds publishes the same
// sketch, and one that adds a new value publishes a copy, leaving the
// sketch a reader holds as it was.
func TestCommitSharesAHeldSketch(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 100)
	commit := func(id, grp int64, name string) {
		tx := c.BeginTxn()
		if err := tx.Insert(tbl, types.Tuple{types.NewInt(id), types.NewInt(grp), types.NewString(name)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	grp, name := tbl.ColStat(1), tbl.ColStat(2)
	if grp.Sketch == nil || name.Sketch == nil {
		t.Fatal("ANALYZE left no distinct-count sketch")
	}
	commit(100, 3, "name-7")
	if tbl.ColStat(1).Sketch != grp.Sketch || tbl.ColStat(2).Sketch != name.Sketch {
		t.Error("a commit of values the sketch holds copied it")
	}
	held := tbl.ColStat(1)
	before := held.Sketch.Estimate()
	commit(101, 42, "name-7")
	got := tbl.ColStat(1)
	if got.Sketch == held.Sketch {
		t.Fatal("a commit of a new value did not copy the sketch")
	}
	if held.Sketch.Estimate() != before || got.Sketch.Estimate() != before+1 {
		t.Errorf("estimates: held sketch %v (was %v), published %v, want %v",
			held.Sketch.Estimate(), before, got.Sketch.Estimate(), before+1)
	}
}

func TestTxnDeleteConflictSurfacesAndAborts(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 10)

	// Find one RID.
	scan := tbl.Heap.Scan().WithSnapshot(c.Txns().LatestSnapshot())
	if !scan.Next() {
		t.Fatal("empty table")
	}
	rid, tup := scan.RID(), scan.Tuple().Clone()

	tx1 := c.BeginTxn()
	tx2 := c.BeginTxn()
	if err := tx1.Delete(tbl, rid, tup); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(tbl, rid, tup); err == nil {
		t.Fatal("second deleter did not conflict")
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx1.Commit()
	if card, _ := tbl.Stats(); card != 9 {
		t.Errorf("cardinality = %.0f, want 9", card)
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 20)

	tx := c.BeginTxn()
	scan := tbl.Heap.Scan().WithSnapshot(tx.Snapshot())
	removed := 0
	for scan.Next() && removed < 5 {
		if err := tx.Delete(tbl, scan.RID(), scan.Tuple().Clone()); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	if scan.Err() != nil {
		t.Fatal(scan.Err())
	}
	tx.Commit()

	if dead, err := c.DeadVersions(); err != nil || dead != 5 {
		t.Fatalf("DeadVersions = %d (err %v), want 5", dead, err)
	}
	n, err := c.Vacuum()
	if err != nil || n != 5 {
		t.Fatalf("Vacuum removed %d (err %v), want 5", n, err)
	}
	if dead, _ := c.DeadVersions(); dead != 0 {
		t.Errorf("DeadVersions = %d after vacuum, want 0", dead)
	}
}

// Index vacuum: after K committed updates of one key, the index holds an
// entry for every version, K+1 of them; a vacuum with no older snapshot
// open leaves exactly the versions the heap still holds — the one live
// version — and the index of a column no update touched keeps its one
// entry per row. An aborted insert's entries go with it.
func TestVacuumPrunesIndexEntries(t *testing.T) {
	c := newTestCatalog()
	tbl := loadedTable(t, c, "r", 100)
	for _, col := range []string{"id", "grp"} {
		if err := c.CreateIndex("r", col); err != nil {
			t.Fatal(err)
		}
	}
	ids, grps := tbl.Indexes[0].Tree, tbl.Indexes[1].Tree
	key := types.NewInt(42)
	const K = 30
	for i := 0; i < K; i++ {
		tx := c.BeginTxn()
		rids := ids.Lookup(key, nil, nil)
		updated := 0
		for _, rid := range rids {
			tup, ok, err := tbl.Heap.Fetcher(nil).FetchVisible(rid, tx.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			next := tup.Clone()
			next[2] = types.NewString(fmt.Sprint("v", i))
			if err := tx.Delete(tbl, rid, tup); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(tbl, next); err != nil {
				t.Fatal(err)
			}
			updated++
		}
		if updated != 1 {
			t.Fatalf("update %d touched %d versions of the key", i, updated)
		}
		tx.Commit()
	}
	if n := len(ids.Lookup(key, nil, nil)); n != K+1 {
		t.Fatalf("%d entries for the key before vacuum, want %d", n, K+1)
	}
	tx := c.BeginTxn()
	if err := tx.Insert(tbl, types.Tuple{key, types.NewInt(2), types.NewString("aborted")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if n, err := c.Vacuum(); err != nil || n != K {
		t.Fatalf("Vacuum removed %d (err %v), want %d", n, err, K)
	}
	rids := ids.Lookup(key, nil, nil)
	if len(rids) != 1 {
		t.Fatalf("%d entries for the key after vacuum, want 1", len(rids))
	}
	if tup, ok, err := tbl.Heap.Fetcher(nil).FetchVisible(rids[0], c.Txns().LatestSnapshot()); err != nil || !ok || tup[2].Str() != fmt.Sprint("v", K-1) {
		t.Errorf("the key's entry resolves to %v (visible %v, err %v), want the last version", tup, ok, err)
	}
	live := tbl.Heap.NumTuples()
	if ids.Len() != live || grps.Len() != live {
		t.Errorf("index entries %d and %d, want one per live record: %d", ids.Len(), grps.Len(), live)
	}
}
