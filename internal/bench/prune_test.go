package bench

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// TestScanEstimatesMatchObservedWidth: with fresh statistics, the size
// the optimizer annotates every TPC-D scan with is, per row, within 10 %
// of the average tuple size a statistics collector observes on that
// scan's output. Both are in encoded bytes of the columns the scan
// keeps, so pruning cannot show up as an estimation error and trigger a
// re-allocation of its own.
func TestScanEstimatesMatchObservedWidth(t *testing.T) {
	env, err := NewEnv(Config{SF: 0.005, PoolPages: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpcd.Queries() {
		res, err := reopt.New(env.Cat, reopt.DefaultConfig(reopt.ModeOff)).EstimateOnly(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		plan.Walk(res.Root, func(n plan.Node) {
			scan, ok := n.(*plan.Scan)
			if !ok {
				return
			}
			var obs *plan.Observed
			ctx := &exec.Ctx{Pool: env.Pool, Meter: env.Meter, Params: plan.Params{},
				StatsSink: func(o *plan.Observed) { obs = o }}
			op := exec.NewCollector(&plan.Collector{Input: scan, ID: 1}, exec.NewSeqScan(scan, ctx), ctx)
			rows, err := exec.Collect(op)
			if err != nil {
				t.Fatalf("%s %s: %v", q.Name, scan.Binding, err)
			}
			if obs == nil || len(rows) == 0 {
				t.Fatalf("%s %s: scan observed nothing (%d rows)", q.Name, scan.Binding, len(rows))
			}
			for _, r := range rows {
				if len(r) != scan.Out.Len() {
					t.Fatalf("%s %s: tuple of %d values under schema %s", q.Name, scan.Binding, len(r), scan.Out)
				}
			}
			e := scan.Est()
			est, got := e.Bytes/e.Rows, obs.AvgTupleBytes()
			if math.Abs(est-got) > 0.10*got {
				t.Errorf("%s %s: estimated %.1f bytes a row, observed %.1f (%s)", q.Name, scan.Binding, est, got, scan.Describe())
			}
		})
	}
}

// TestPlanSwitchTempHoldsOnlyRequiredColumns: in the frozen benchmark
// environment Q5's plan-modification path still fires — the running
// join's output is materialised and the remainder re-submitted — the
// answer is the un-re-optimized run's, and the temp table carries no
// column outside the query's required sets: what is materialised,
// re-read and re-joined is sized by what is used.
func TestPlanSwitchTempHoldsOnlyRequiredColumns(t *testing.T) {
	env, err := NewEnv(Default())
	if err != nil {
		t.Fatal(err)
	}
	q5, _ := tpcd.ByName("Q5")
	stmt, err := sql.Parse(q5.SQL)
	if err != nil {
		t.Fatal(err)
	}
	aq, err := optimizer.Analyze(env.Cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{} // temp column names: binding_column
	for _, rel := range aq.Rels {
		for _, c := range rel.Out.Columns {
			allowed[rel.Binding+"_"+c.Name] = true
		}
	}
	full := 0
	for _, rel := range aq.Rels {
		full += rel.Schema.Len()
	}
	if len(allowed) >= full {
		t.Fatalf("Q5 requires %d of %d columns: nothing pruned", len(allowed), full)
	}

	run := func(mode reopt.Mode, hook func(int)) ([]types.Tuple, *reopt.Stats) {
		res, err := env.Exec(q5.SQL, session.Options{Mode: mode, CheckpointHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, res.Stats
	}
	want, _ := run(reopt.ModeOff, nil)

	// The remainder's own checkpoints run while the materialised temp is
	// registered (trial and splice temps are empty placeholders).
	tempCols := map[string][]string{}
	got, st := run(reopt.ModePlanOnly, func(int) {
		for _, name := range env.Cat.TempTables() {
			tbl, err := env.Cat.Table(name)
			if err != nil || tbl.Heap.NumTuples() == 0 {
				continue
			}
			var cols []string
			for _, c := range tbl.Schema.Columns {
				cols = append(cols, c.Name)
			}
			tempCols[name] = cols
		}
	})
	if st.PlanSwitches == 0 {
		t.Fatalf("Q5 no longer switches plans at %v bytes: %v", env.Cfg.MemBudget, st.Decisions)
	}
	if len(tempCols) == 0 {
		t.Fatal("no materialised temp table was seen at a checkpoint of the remainder")
	}
	for name, cols := range tempCols {
		for _, c := range cols {
			if !allowed[c] {
				t.Errorf("temp %s holds %s, outside every required set (%v)", name, c, cols)
			}
		}
	}
	canon := func(rows []types.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	if g, w := canon(got), canon(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("switched run returned\n%s\nwant\n%s", strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
	if temps := env.Cat.TempTables(); len(temps) != 0 {
		t.Errorf("temp tables left behind: %v", temps)
	}
}
