package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/reopt"
	"repro/internal/tpcd"
)

// tiny returns a fast configuration for harness tests.
func tiny() Config {
	return Config{SF: 0.001, PoolPages: 128, MemBudget: 1 << 20, StaleFrac: 0.5, Seed: 3}
}

func TestNewEnvDefaults(t *testing.T) {
	env, err := NewEnv(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if env.Cfg.SF != 0.01 || env.Cfg.PoolPages != 256 || env.Cfg.MemBudget != 2<<20 {
		t.Errorf("defaults not applied: %+v", env.Cfg)
	}
}

func TestRunDeterministic(t *testing.T) {
	env, err := NewEnv(tiny())
	if err != nil {
		t.Fatal(err)
	}
	q, _ := tpcd.ByName("Q3")
	r, err := env.runModes(q, reopt.ModeFull, reopt.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r[0].Cost, r[1].Cost; math.Abs(a-b) > 1e-9 {
		t.Errorf("cold runs differ: %g vs %g", a, b)
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Off <= 0 || r.Full <= 0 {
			t.Errorf("%s: empty measurements %+v", r.Query, r)
		}
		if r.Class == tpcd.Simple && math.Abs(r.Full/r.Off-1) > 0.05 {
			t.Errorf("%s: simple query deviates %.1f%%", r.Query, (r.Full/r.Off-1)*100)
		}
	}
	table := FormatRows("t", rows)
	for _, q := range []string{"Q1", "Q5", "Q8"} {
		if !strings.Contains(table, q) {
			t.Errorf("table missing %s:\n%s", q, table)
		}
	}
}

func TestFigure11ExcludesSimple(t *testing.T) {
	rows, err := Figure11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (medium+complex)", len(rows))
	}
	for _, r := range rows {
		if r.Class == tpcd.Simple {
			t.Errorf("simple query %s included", r.Query)
		}
		if r.Mem <= 0 || r.Plan <= 0 {
			t.Errorf("%s: missing mode measurements", r.Query)
		}
	}
}

func TestMuGuaranteeHolds(t *testing.T) {
	rows, err := MuGuarantee(tiny(), []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no mu rows")
	}
	for _, r := range rows {
		if r.Overhead > 0.05 {
			t.Errorf("%s at mu=%.2f: overhead %.1f%% > 5%%", r.Query, r.Mu, r.Overhead*100)
		}
	}
}

func TestSensitivityMonotoneSwitches(t *testing.T) {
	rows, err := Sensitivity(tiny(), []float64{0.05, 10})
	if err != nil {
		t.Fatal(err)
	}
	// At an absurdly high theta2, no switches may happen.
	byQuery := map[string]map[float64]int{}
	for _, r := range rows {
		if byQuery[r.Query] == nil {
			byQuery[r.Query] = map[float64]int{}
		}
		byQuery[r.Query][r.Theta2] = r.Switches
	}
	for q, m := range byQuery {
		if m[10] > m[0.05] {
			t.Errorf("%s: more switches at theta2=10 (%d) than 0.05 (%d)", q, m[10], m[0.05])
		}
		if m[10] != 0 {
			t.Errorf("%s: switches at theta2=10", q)
		}
	}
}

func TestAblationsCoverVariants(t *testing.T) {
	rows, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"normal": true, "full": true, "restart": true, "collect-all": true, "hash-only": true}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Variant] = true
		if r.Cost <= 0 {
			t.Errorf("%s/%s: zero cost", r.Query, r.Variant)
		}
	}
	for v := range want {
		if !seen[v] {
			t.Errorf("variant %s missing", v)
		}
	}
}

func TestHistFamiliesCoverFamilies(t *testing.T) {
	rows, err := HistFamilies(tiny())
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, r := range rows {
		fams[r.Family] = true
	}
	for _, f := range []string{"maxdiff", "equi-depth", "equi-width"} {
		if !fams[f] {
			t.Errorf("family %s missing (got %v)", f, fams)
		}
	}
}

// TestSummarizeEmptyIsSkipped: a degree with zero qualifying speedups
// must come back marked skipped, with no entry — an unmeasured degree
// must not satisfy the speedup gate vacuously.
func TestSummarizeEmptyIsSkipped(t *testing.T) {
	ps := SummarizeParallel([]ParallelRow{{Query: "Qx", Degree: 4, MeasuredSpeedup: 0}})
	if _, ok := ps.MeasuredSpeedup["d4"]; ok {
		t.Error("unmeasured degree has a MeasuredSpeedup entry")
	}
	if len(ps.Skipped) != 1 || ps.Skipped[0] != "d4" {
		t.Errorf("Skipped = %v, want [d4]", ps.Skipped)
	}
	// Non-finite speedups must not poison the geomean.
	ps = SummarizeParallel([]ParallelRow{
		{Query: "Qx", Degree: 2, MeasuredSpeedup: 2},
		{Query: "Qy", Degree: 2, MeasuredSpeedup: math.Inf(1)},
		{Query: "Qz", Degree: 2, MeasuredSpeedup: math.NaN()},
	})
	if got := ps.MeasuredSpeedup["d2"]; got != 2 {
		t.Errorf("d2 geomean = %v, want 2 (Inf and NaN rows excluded)", got)
	}
}

// TestMixedWorkload smoke-tests the concurrent write/read harness: all
// writer transactions account for themselves (committed + aborted =
// attempted), throughput and the stats-version delta are positive, the
// read sweep's rows carry cost estimates, and vacuum leaves no dead
// versions behind.
func TestMixedWorkload(t *testing.T) {
	res, err := Mixed(tiny(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Writes
	if got := w.TxnsCommitted + w.TxnsAborted; got != 2*4 {
		t.Errorf("committed+aborted = %.0f, want 8", got)
	}
	if w.RowsWritten <= 0 || w.RowsPerSecond <= 0 {
		t.Errorf("no write throughput measured: %+v", w)
	}
	if int64(w.TxnsCommitted) != w.StatsVersionDelta {
		t.Errorf("stats version advanced %d times over %.0f commits", w.StatsVersionDelta, w.TxnsCommitted)
	}
	if w.WriteConflicts != w.TxnsAborted {
		t.Errorf("conflicts %.0f != aborts %.0f (only conflicts abort here)", w.WriteConflicts, w.TxnsAborted)
	}
	if len(res.Reads) < 5 {
		t.Errorf("only %d read measurements", len(res.Reads))
	}
	for _, r := range res.Reads {
		if r.Full <= 0 {
			t.Errorf("%s: empty read measurement", r.Query)
		}
		if r.EstCost <= 0 {
			t.Errorf("%s: read measurement has no cost estimate", r.Query)
		}
	}
}
