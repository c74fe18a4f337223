package catalog

import (
	"testing"

	"repro/internal/histogram"
	"repro/internal/storage"
	"repro/internal/types"
)

func newTestCatalog() *Catalog {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	d := storage.NewDisk(m)
	return New(storage.NewBufferPool(d, 64))
}

func rsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt, Key: true},
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

func TestCreateAndLookupTable(t *testing.T) {
	c := newTestCatalog()
	tbl, err := c.CreateTable("R", rsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name != "r" {
		t.Errorf("table name = %q", tbl.Name)
	}
	if tbl.Schema.Columns[0].Table != "r" {
		t.Errorf("column qualifier = %q", tbl.Schema.Columns[0].Table)
	}
	got, err := c.Table("r")
	if err != nil || got != tbl {
		t.Errorf("Table(r) = %v, %v", got, err)
	}
	if _, err := c.Table("R"); err != nil {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := c.CreateTable("r", rsSchema()); err == nil {
		t.Error("duplicate CreateTable succeeded")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
	if names := c.Tables(); len(names) != 1 || names[0] != "r" {
		t.Errorf("Tables() = %v", names)
	}
}

func TestInsertAndIndexes(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	for i := int64(0); i < 100; i++ {
		err := tbl.Insert(types.Tuple{types.NewInt(i), types.NewInt(i % 10), types.NewString("x")})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(types.Tuple{types.NewInt(1)}); err == nil {
		t.Error("arity-mismatch insert succeeded")
	}
	if err := c.CreateIndex("r", "grp"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("r", "grp"); err == nil {
		t.Error("duplicate index succeeded")
	}
	if err := c.CreateIndex("r", "nope"); err == nil {
		t.Error("index on missing column succeeded")
	}
	col, _ := tbl.Schema.Resolve("", "grp")
	idx := tbl.Indexes[col]
	rids := idx.Tree.Lookup(types.NewInt(3), nil, nil)
	if len(rids) != 10 {
		t.Errorf("index lookup returned %d rids, want 10", len(rids))
	}
	// Inserts after index creation maintain the index.
	tbl.Insert(types.Tuple{types.NewInt(200), types.NewInt(3), types.NewString("y")})
	if got := len(idx.Tree.Lookup(types.NewInt(3), nil, nil)); got != 11 {
		t.Errorf("index after insert has %d rids, want 11", got)
	}
}

func TestAnalyzeComputesStats(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	for i := int64(0); i < 1000; i++ {
		tbl.Insert(types.Tuple{types.NewInt(i), types.NewInt(i % 20), types.NewString("n")})
	}
	if !tbl.StaleStats() {
		t.Error("unanalyzed table not stale")
	}
	if err := c.Analyze("r", AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
		t.Fatal(err)
	}
	if tbl.Cardinality != 1000 {
		t.Errorf("Cardinality = %g", tbl.Cardinality)
	}
	if tbl.AvgTupleBytes <= 0 {
		t.Error("AvgTupleBytes not set")
	}
	if tbl.StaleStats() {
		t.Error("stale right after Analyze")
	}
	grpCol, _ := tbl.Schema.Resolve("", "grp")
	cs := tbl.ColStats[grpCol]
	if !cs.HasHistogram() {
		t.Fatal("no histogram on grp")
	}
	if cs.Distinct != 20 {
		t.Errorf("Distinct = %g, want 20", cs.Distinct)
	}
	if !cs.Min.Equal(types.NewInt(0)) || !cs.Max.Equal(types.NewInt(19)) {
		t.Errorf("Min/Max = %v/%v", cs.Min, cs.Max)
	}
}

func TestAnalyzeSkipHistograms(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	for i := int64(0); i < 100; i++ {
		tbl.Insert(types.Tuple{types.NewInt(i), types.NewInt(i % 5), types.NewString("n")})
	}
	if err := c.Analyze("r", AnalyzeOptions{SkipHistograms: true}); err != nil {
		t.Fatal(err)
	}
	grpCol, _ := tbl.Schema.Resolve("", "grp")
	cs := tbl.ColStats[grpCol]
	if cs.HasHistogram() {
		t.Error("histogram present despite SkipHistograms")
	}
	if cs.Distinct != 5 {
		t.Errorf("Distinct = %g", cs.Distinct)
	}
}

func TestAnalyzeSelectedColumns(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	tbl.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("n")})
	if err := c.Analyze("r", AnalyzeOptions{Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	grpCol, _ := tbl.Schema.Resolve("", "grp")
	idCol, _ := tbl.Schema.Resolve("", "id")
	if tbl.ColStats[grpCol] == nil {
		t.Error("grp not analyzed")
	}
	if tbl.ColStats[idCol] != nil {
		t.Error("id analyzed despite column filter")
	}
	if err := c.Analyze("r", AnalyzeOptions{Columns: []string{"zzz"}}); err == nil {
		t.Error("Analyze of missing column succeeded")
	}
}

func TestStaleStatsThreshold(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	for i := int64(0); i < 100; i++ {
		tbl.Insert(types.Tuple{types.NewInt(i), types.NewInt(0), types.NewString("n")})
	}
	c.Analyze("r", AnalyzeOptions{})
	// 5% churn: not stale.
	for i := int64(0); i < 5; i++ {
		tbl.Insert(types.Tuple{types.NewInt(1000 + i), types.NewInt(0), types.NewString("n")})
	}
	if tbl.StaleStats() {
		t.Error("5%% churn flagged stale")
	}
	for i := int64(0); i < 10; i++ {
		tbl.Insert(types.Tuple{types.NewInt(2000 + i), types.NewInt(0), types.NewString("n")})
	}
	if !tbl.StaleStats() {
		t.Error("15%% churn not flagged stale")
	}
}

func TestAnalyzeNulls(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	tbl.Insert(types.Tuple{types.NewInt(1), types.Null(), types.NewString("n")})
	tbl.Insert(types.Tuple{types.NewInt(2), types.NewInt(5), types.NewString("n")})
	if err := c.Analyze("r", AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	grpCol, _ := tbl.Schema.Resolve("", "grp")
	cs := tbl.ColStats[grpCol]
	if cs.NullFrac != 0.5 {
		t.Errorf("NullFrac = %g", cs.NullFrac)
	}
}

// ANALYZE records each column's mean encoded width, NULLs included, so
// the widths of all columns plus the tuple header are AvgTupleBytes, and
// a projection's size is the header plus the widths of what it keeps.
// Without measured widths the tuple size is split by kind.
func TestColumnWidths(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("r", rsSchema())
	tbl.Insert(types.Tuple{types.NewInt(1), types.Null(), types.NewString("abcd")})
	tbl.Insert(types.Tuple{types.NewInt(2), types.NewInt(5), types.NewString("ab")})
	if got := tbl.AvgBytes([]int{0}); got != 0 {
		t.Errorf("unanalyzed AvgBytes = %g, want 0 (unknown)", got)
	}
	if err := c.Analyze("r", AnalyzeOptions{Columns: []string{"id", "grp"}}); err != nil {
		t.Fatal(err)
	}
	// id: 9 and 9; grp: 1 (NULL) and 9; name: 5+4 and 5+2.
	for col, want := range map[int]float64{0: 9, 1: 5} {
		if got := tbl.ColStat(col).AvgWidth; got != want {
			t.Errorf("column %d AvgWidth = %g, want %g", col, got, want)
		}
	}
	_, avg := tbl.Stats()
	if want := float64(types.TupleHeaderSize) + 9 + 5 + 8; avg != want {
		t.Fatalf("AvgTupleBytes = %g, want %g", avg, want)
	}
	if got, want := tbl.AvgBytes([]int{0, 1}), float64(types.TupleHeaderSize)+9+5; got != want {
		t.Errorf("AvgBytes(id, grp) = %g, want %g", got, want)
	}
	if got := tbl.AvgBytes(nil); got != avg {
		t.Errorf("AvgBytes(all) = %g, want AvgTupleBytes %g", got, avg)
	}
	// name was not analyzed: split the tuple size by kind (9 : 9 : 24).
	if got, want := tbl.AvgBytes([]int{0, 2}), avg*(9+24)/(9+9+24); got != want {
		t.Errorf("AvgBytes(id, name) = %g, want %g", got, want)
	}
	if err := c.Analyze("r", AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.AvgBytes([]int{0, 2}), float64(types.TupleHeaderSize)+9+8; got != want {
		t.Errorf("AvgBytes(id, name) after full ANALYZE = %g, want %g", got, want)
	}
}

func TestDropTable(t *testing.T) {
	c := newTestCatalog()
	c.CreateTable("r", rsSchema())
	if err := c.DropTable("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("r"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("r"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestRegisterTemp(t *testing.T) {
	c := newTestCatalog()
	tf := storage.NewTempFile(c.Pool(), c.Pool().Disk().Meter())
	tf.Append(types.Tuple{types.NewInt(1), types.NewString("a")})
	tf.Append(types.Tuple{types.NewInt(2), types.NewString("b")})
	schema := types.NewSchema(
		types.Column{Name: "x", Kind: types.KindInt},
		types.Column{Name: "y", Kind: types.KindString},
	)
	tbl, err := c.RegisterTemp("temp1", schema, tf)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cardinality != 2 {
		t.Errorf("temp Cardinality = %g", tbl.Cardinality)
	}
	if tbl.Schema.Columns[0].Table != "temp1" {
		t.Errorf("temp column qualifier = %q", tbl.Schema.Columns[0].Table)
	}
	if _, err := c.RegisterTemp("temp1", schema, tf); err == nil {
		t.Error("duplicate RegisterTemp succeeded")
	}
	// Dropping a temp table frees its pages.
	before := c.Pool().Disk().NumPages()
	if err := c.DropTable("temp1"); err != nil {
		t.Fatal(err)
	}
	if c.Pool().Disk().NumPages() >= before {
		t.Error("temp drop freed no pages")
	}
}
