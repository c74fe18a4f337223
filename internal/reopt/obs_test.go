package reopt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/types"
)

// runInstrumented is runMode at the given degree with the observability
// surfaces attached: a progress record timed for EXPLAIN ANALYZE and a
// lifecycle trace.
func runInstrumented(t *testing.T, e *env, mode Mode, degree int, src string, params plan.Params) (*Stats, *obs.Progress, *obs.Trace, float64) {
	t.Helper()
	az := obs.NewProgress("q", 0, src, true)
	tr := obs.NewTrace(obs.DefaultTraceCap)
	cfg := DefaultConfig(mode)
	cfg.Trace = tr
	cfg.Degree = degree
	d := New(e.cat, cfg)
	ctx := e.ctx(params)
	ctx.Prog = az
	ctx.Trace = tr
	before := e.m.Snapshot()
	_, st, err := d.RunSQL(src, params, ctx)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	return st, az, tr, e.m.Snapshot().Sub(before).Cost()
}

// TestExplainAnalyzeMarksSplicePoint re-runs the Figure 6 walk-through
// with EXPLAIN ANALYZE attached: the rendered output must show both
// plans, per-operator actuals, and the temp-table scan that marks where
// the switched plan resumes from materialized state.
func TestExplainAnalyzeMarksSplicePoint(t *testing.T) {
	e := newEnv(8192)
	e.addTable(t, "rel1", 1350, 4000, 10)
	e.addTable(t, "rel2", 4000, 60000, 5)
	e.addTable(t, "rel3", 60000, 5, 5)
	e.analyzeAll(t)
	e.cat.CreateIndex("rel3", "rel3_pk")
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :v1 and rel1_grp < :v2 group by rel1_grp`
	params := plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)}

	st, az, tr, _ := runInstrumented(t, e, ModePlanOnly, 1, src, params)
	if st.PlanSwitches == 0 {
		t.Fatal("no plan switch; the EXPLAIN ANALYZE assertions below need one")
	}
	text := az.Render()
	for _, want := range []string{
		"plan 1 (initial):",
		"plan 2 (re-optimized remainder):",
		"est rows=",
		"actual rows=",
		"[re-optimized here]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}

	kinds := map[string]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"plan", "scia", "collector", "decision"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q event (kinds: %v)", want, kinds)
		}
	}
	if kinds["plan"] < 2 {
		t.Errorf("trace recorded %d plan events, want one per compiled plan (2)", kinds["plan"])
	}
	if kinds["decision"] != len(st.Decisions) {
		t.Errorf("trace recorded %d decision events for %d checkpoints", kinds["decision"], len(st.Decisions))
	}
}

// TestProgressReadsTheDecisionRecords runs a query that re-allocates
// memory at its checkpoints under ModeFull with progress on: the
// progress record's checkpoint and switch counts and its score floor are
// exactly what the decision records say, the floor being Equation 2's
// own position under the re-allocated grants.
func TestProgressReadsTheDecisionRecords(t *testing.T) {
	e := newEnv(8192)
	e.addTable(t, "rel1", 60000, 30000, 25)
	e.addTable(t, "rel2", 30000, 40000, 5)
	e.addTable(t, "rel3", 40000, 5, 5)
	e.analyzeAll(t)
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :cut group by rel1_grp`
	prog := obs.NewProgress("q", 0, src, false)
	cfg := DefaultConfig(ModeFull)
	cfg.MemBudget = 1 << 20
	params := plan.Params{"cut": types.NewFloat(150)}
	ctx := e.ctx(params)
	ctx.Prog = prog
	_, st, err := New(e.cat, cfg).RunSQL(src, params, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemReallocs == 0 {
		t.Fatal("no re-allocation; the floor would not depend on when Eq. 2 is priced")
	}
	floor := 0.0
	for _, d := range st.Decisions {
		floor = math.Max(floor, d.Improved/d.Estimate)
	}
	snap := prog.Snapshot(false)
	if snap.Checkpoints != int64(len(st.Decisions)) || snap.Switches != int64(st.PlanSwitches) {
		t.Errorf("progress shows %d checkpoints and %d switches, the records %d and %d",
			snap.Checkpoints, snap.Switches, len(st.Decisions), st.PlanSwitches)
	}
	if got := prog.ScoreFloor(); got != floor {
		t.Errorf("score floor %v, Eq. 2 positions in the records peak at %v; decisions: %v", got, floor, st.Decisions)
	}
}

// TestAnalyzeSelfCostsSumToQueryCost checks the EXPLAIN ANALYZE timing
// invariant: per-operator self costs are inclusive cost minus children,
// so their sum must telescope back to the metered cost of the whole
// query, whether the plan opens from its root or the dispatcher opens
// each join at its checkpoint first. Anything the meter charges outside
// operator Open/Next/Close (parse, optimize) is the residue; it stays
// small. The parallel case is Q6's shape at degree 2, where the gathers
// nest like the operators: the scans run in the workers of the gather
// under the aggregate, the partial aggregates in those of the one above.
func TestAnalyzeSelfCostsSumToQueryCost(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(999999)}
	for _, c := range []struct {
		src    string
		degree int
	}{
		{threeJoinQuery, 1},
		{`select sum(a_val) as s, count(*) as n from a where a_val < :cut`, 2},
	} {
		for _, mode := range []Mode{ModeOff, ModeFull} {
			_, az, _, metered := runInstrumented(t, e, mode, c.degree, c.src, params)
			sum := az.TotalSelfCost()
			if sum <= 0 || metered <= 0 {
				t.Fatalf("%v at degree %d: degenerate costs: sum=%g metered=%g", mode, c.degree, sum, metered)
			}
			if rel := math.Abs(sum-metered) / metered; rel > 0.05 {
				t.Errorf("%v at degree %d: self-cost sum %.1f vs metered query cost %.1f (%.1f%% off):\n%s",
					mode, c.degree, sum, metered, rel*100, az.Render())
			}
		}
	}
}

// TestTraceDisabledByDefault: with no trace configured the dispatcher
// runs with a nil *obs.Trace, Enabled() is false, and the run completes
// without emitting anywhere.
func TestTraceDisabledByDefault(t *testing.T) {
	var tr *obs.Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(50)}
	_, st, _ := runMode(t, e, ModeFull, threeJoinQuery, params, 0)
	if st.CollectorsInserted == 0 {
		t.Error("full mode without a trace stopped inserting collectors")
	}
}
