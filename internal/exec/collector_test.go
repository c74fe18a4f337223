package exec

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/histogram"
	"repro/internal/plan"
	"repro/internal/types"
)

func TestCollectorPassThroughUnchanged(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 200, 10)
	c := &plan.Collector{Input: scanNode(tbl), ID: 1}
	got := collectAll(t, mustBuild(t, e, c))
	want := collectAll(t, mustBuild(t, e, scanNode(tbl)))
	tuplesetEqual(t, got, want)
}

func TestCollectorReportsCardinalityAndSize(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 500, 10)
	var report *plan.Observed
	e.ctx.StatsSink = func(o *plan.Observed) { report = o }
	c := &plan.Collector{Input: scanNode(tbl), ID: 42}
	collectAll(t, mustBuild(t, e, c))
	if report == nil {
		t.Fatal("no report delivered")
	}
	if report.CollectorID != 42 {
		t.Errorf("CollectorID = %d", report.CollectorID)
	}
	if report.Rows != 500 {
		t.Errorf("Rows = %g", report.Rows)
	}
	if report.AvgTupleBytes() <= 0 {
		t.Error("AvgTupleBytes not observed")
	}
}

func TestCollectorHistogramAccuracy(t *testing.T) {
	e := newEnv(256)
	tbl := e.makeTable(t, "r", 5000, 100) // v uniform on [0,100)
	var report *plan.Observed
	e.ctx.StatsSink = func(o *plan.Observed) { report = o }
	c := &plan.Collector{
		Input: scanNode(tbl),
		Spec: plan.CollectorSpec{
			HistCols:   []int{1},
			HistFamily: histogram.MaxDiff,
			Seed:       7,
		},
		ID: 1,
	}
	collectAll(t, mustBuild(t, e, c))
	h := report.Hists[1]
	if h == nil {
		t.Fatal("no histogram on column 1")
	}
	if math.Abs(h.Total-5000) > 1 {
		t.Errorf("histogram Total = %g (should scale to stream size)", h.Total)
	}
	sel := h.EstimateRange(0, 49)
	if math.Abs(sel-0.5) > 0.1 {
		t.Errorf("range estimate = %g, want ~0.5", sel)
	}
	if report.Mins[1].Int() != 0 || report.Maxs[1].Int() != 99 {
		t.Errorf("min/max = %v/%v", report.Mins[1], report.Maxs[1])
	}
}

func TestCollectorUniqueCounts(t *testing.T) {
	e := newEnv(256)
	tbl := e.makeTable(t, "r", 3000, 30)
	var report *plan.Observed
	e.ctx.StatsSink = func(o *plan.Observed) { report = o }
	c := &plan.Collector{
		Input: scanNode(tbl),
		Spec: plan.CollectorSpec{
			UniqueCols: [][]int{{1}},
		},
		ID: 1,
	}
	collectAll(t, mustBuild(t, e, c))
	got := report.Uniques[plan.UniqueKey([]int{1})]
	if got < 15 || got > 60 {
		t.Errorf("unique estimate = %g, want ~30", got)
	}
}

func TestCollectorChargesStatCPUOnly(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 400, 10)
	// Run plain scan to measure baseline I/O.
	op, _ := Build(scanNode(tbl), e.ctx)
	collectAll(t, op)
	before := e.ctx.Meter.Snapshot()
	c := &plan.Collector{
		Input: scanNode(tbl),
		Spec:  plan.CollectorSpec{HistCols: []int{1}, UniqueCols: [][]int{{1}}},
	}
	op2, _ := Build(c, e.ctx)
	collectAll(t, op2)
	d := e.ctx.Meter.Snapshot().Sub(before)
	if d.StatCPU != 400 {
		t.Errorf("collector charged %d stat CPU, want 400", d.StatCPU)
	}
	// "Without any I/O overhead" (§2.2): the collector itself performs
	// no writes; reads are the same as the plain scan (all cached).
	if d.PageWrites != 0 {
		t.Errorf("collector performed %d writes", d.PageWrites)
	}
}

func TestCollectorReportsOnce(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 10, 2)
	count := 0
	e.ctx.StatsSink = func(o *plan.Observed) { count++ }
	c := &plan.Collector{Input: scanNode(tbl)}
	op := mustBuild(t, e, c)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		tup, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
	}
	// Extra Next calls after EOF must not re-report.
	op.Next()
	op.Next()
	op.Close()
	if count != 1 {
		t.Errorf("report delivered %d times", count)
	}
}

func TestCollectorSkipsNullsInHistogram(t *testing.T) {
	e := newEnv(64)
	tbl, _ := e.cat.CreateTable("n", types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}))
	tbl.Insert(types.Tuple{types.Null()})
	tbl.Insert(types.Tuple{types.NewInt(5)})
	var report *plan.Observed
	e.ctx.StatsSink = func(o *plan.Observed) { report = o }
	c := &plan.Collector{Input: scanNode(tbl), Spec: plan.CollectorSpec{HistCols: []int{0}}}
	collectAll(t, mustBuild(t, e, c))
	if report.Rows != 2 {
		t.Errorf("Rows = %g", report.Rows)
	}
	if report.Mins[0].IsNull() || report.Mins[0].Int() != 5 {
		t.Errorf("Min = %v", report.Mins[0])
	}
}

// Observe walks slices resolved once per state; the report keeps its
// shape: histograms and extrema keyed by column ordinal, distinct counts
// by plan.UniqueKey, extrema only for columns that held a value — and
// observing a tuple allocates nothing.
func TestCollectorStateReportShape(t *testing.T) {
	node := &plan.Collector{ID: 3, Spec: plan.CollectorSpec{
		HistCols:   []int{2, 0, 3},
		UniqueCols: [][]int{{1}, {0, 1}},
		Seed:       5,
	}}
	st := NewCollectorState(node, 0)
	rows := make([]types.Tuple, 600)
	for i := range rows {
		// Column 3 is NULL throughout.
		rows[i] = types.Tuple{types.NewInt(int64(i % 50)), types.NewInt(int64(i % 7)), types.NewFloat(float64(i) / 2), types.Null()}
	}
	for _, r := range rows[:100] {
		st.Observe(r)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for _, r := range rows[100:350] {
			st.Observe(r)
		}
	}); allocs > 2 { // two reservoirs may still be growing to their page
		t.Errorf("observing 250 tuples allocated %.0f times", allocs)
	}
	// AllocsPerRun ran the 250 twice.
	for _, r := range rows[350:] {
		st.Observe(r)
	}
	o := st.Observed()
	if o.CollectorID != 3 || o.Rows != 850 {
		t.Fatalf("report of collector %d over %g rows, want 3 over 850", o.CollectorID, o.Rows)
	}
	if len(o.Hists) != 3 || o.Hists[0] == nil || o.Hists[2] == nil || o.Hists[3] == nil {
		t.Errorf("histograms on columns %v, want 0, 2 and 3", o.Hists)
	}
	if len(o.Mins) != 2 || len(o.Maxs) != 2 {
		t.Errorf("extrema for %d/%d columns, want the two that held values", len(o.Mins), len(o.Maxs))
	}
	if o.Mins[0].Int() != 0 || o.Maxs[0].Int() != 49 || o.Mins[2].Float() != 0 || o.Maxs[2].Float() != 299.5 {
		t.Errorf("extrema %v .. %v", o.Mins, o.Maxs)
	}
	if _, ok := o.Mins[3]; ok {
		t.Error("an all-NULL column reports a minimum")
	}
	if len(o.Uniques) != 2 || o.Uniques[plan.UniqueKey([]int{1})] != 7 || o.Uniques[plan.UniqueKey([]int{0, 1})] != 350 {
		t.Errorf("distinct counts %v, want 7 and 350", o.Uniques)
	}
}

// smallStream is a statement-sized collector: one histogram column on a
// node that expects its 25 rows, and the 25 rows.
func smallStream() (*plan.Collector, []types.Tuple) {
	node := &plan.Collector{ID: 1, Spec: plan.CollectorSpec{HistCols: []int{1}, Seed: 3}}
	node.Est().Rows = 25
	rows := make([]types.Tuple, 25)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
	}
	return node, rows
}

var sinkState *CollectorState

// A collector allocates for the rows its node expects: no page-sized
// reservoir and no random source before a tuple needs one.
func TestSmallStreamCollectorAllocatesForItsRows(t *testing.T) {
	node, rows := smallStream()
	run := func() {
		st := NewCollectorState(node, 0)
		for _, r := range rows {
			st.Observe(r)
		}
		sinkState = st
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
		t.Errorf("a one-histogram state over 25 rows allocated %.0f times", allocs)
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per >= 2048 {
		t.Errorf("a one-histogram state over 25 rows allocated %.0f bytes, want under 2 KiB", per)
	}
}
