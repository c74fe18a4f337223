package reopt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

func TestDecisionLogRecordsCheckpoints(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(1e9)}
	_, st, _ := runMode(t, e, ModeFull, threeJoinQuery, params, 0)
	if len(st.Decisions) == 0 {
		t.Fatal("no decisions logged")
	}
	for k, d := range st.Decisions {
		if d.Step < 0 || d.Cause == CauseParametric || d.Estimate <= 0 || d.Improved <= 0 {
			t.Errorf("decision %d is not a checkpoint record: %+v", k, d)
		}
		if k > 0 && d.Step < st.Decisions[k-1].Step && !st.Decisions[k-1].Switched() {
			t.Errorf("decision %d (step %d) out of checkpoint order after step %d", k, d.Step, st.Decisions[k-1].Step)
		}
	}
}

func TestRunPlanMatchesRunSQL(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(500)}

	d := New(e.cat, DefaultConfig(ModeFull))
	want, _, err := d.RunSQL(threeJoinQuery, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}

	// RunPlan over an externally optimized plan.
	stmt, _ := sql.Parse(threeJoinQuery)
	q, err := optimizer.Analyze(e.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{Weights: d.Cfg.Weights, MemBudget: d.Cfg.MemBudget}
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := d.RunPlan(res, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "RunPlan", got, want)
	if st.CollectorsInserted == 0 {
		t.Error("RunPlan skipped SCIA")
	}
	if st.EstimatedCost <= 0 {
		t.Error("RunPlan recorded no plan")
	}
}

func TestRunPlanModeOff(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(500)}
	d := New(e.cat, DefaultConfig(ModeOff))
	stmt, _ := sql.Parse(threeJoinQuery)
	q, _ := optimizer.Analyze(e.cat, stmt)
	opt := &optimizer.Optimizer{Weights: d.Cfg.Weights, MemBudget: d.Cfg.MemBudget}
	res, _ := opt.Optimize(q)
	rows, st, err := d.RunPlan(res, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("no rows")
	}
	if st.CollectorsInserted != 0 {
		t.Error("ModeOff inserted collectors")
	}
}

func TestSwitchMarginBlocksMarginalSwitches(t *testing.T) {
	// With an absurd margin no switch can ever clear the bar; results
	// must still be correct and the trials still logged.
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

	cfg := DefaultConfig(ModePlanOnly)
	cfg.SwitchMargin = 0.99
	d := New(e.cat, cfg)
	rows, st, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSwitches != 0 {
		t.Errorf("switched %d times despite 99%% margin", st.PlanSwitches)
	}
	if st.ReoptConsidered == 0 {
		t.Error("equations never evaluated")
	}
	if len(rows) == 0 {
		t.Error("no rows")
	}
}

func TestMonotoneReallocationNeverShrinksGrants(t *testing.T) {
	// Build a plan, allocate, fake an observation with a shrinking
	// ratio, and verify every not-yet-started consumer keeps at least
	// its original grant.
	e := buildThreeJoinEnv(t)
	d := New(e.cat, DefaultConfig(ModeMemoryOnly))
	res, err := d.EstimateOnly(threeJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose(res.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.steps) < 2 {
		t.Fatalf("three-join plan decomposed into %d steps, want at least two", len(dec.steps))
	}
	grantsBefore := map[plan.Node]float64{}
	for k := 1; k < len(dec.steps); k++ {
		grantsBefore[dec.steps[k].join] = dec.steps[k].join.Est().Grant
	}
	// Shrink every estimate drastically, then re-allocate.
	var cnode *plan.Collector
	plan.Walk(res.Root, func(n plan.Node) {
		if c, ok := n.(*plan.Collector); ok && cnode == nil {
			cnode = c
		}
	})
	if cnode == nil {
		t.Fatal("no collector")
	}
	obs := &plan.Observed{CollectorID: cnode.ID, Rows: 1, Bytes: 10}
	applyImproved(dec, 0, cnode, obs, 0.001)
	resizeSuffix(dec, 0, cnode, obs)
	d.reallocate(dec, 0, &Decision{})
	for n, before := range grantsBefore {
		if after := n.Est().Grant; after < before {
			t.Errorf("grant shrank from %g to %g", before, after)
		}
	}
}

func TestConsumedMask(t *testing.T) {
	res := &optimizer.Result{Order: []int{2, 0, 1}}
	if got := consumedMask(res, 0); got != 0b101 {
		t.Errorf("consumedMask(0) = %b", got)
	}
	if got := consumedMask(res, 1); got != 0b111 {
		t.Errorf("consumedMask(1) = %b", got)
	}
}

func TestMaxSwitchesBoundsRecursion(t *testing.T) {
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
	cfg := DefaultConfig(ModePlanOnly)
	cfg.MaxSwitches = 1
	d := New(e.cat, cfg)
	_, st, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSwitches > 1 {
		t.Errorf("switched %d times with MaxSwitches=1", st.PlanSwitches)
	}
}

func TestTempTablesCleanedUp(t *testing.T) {
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
	tablesBefore := len(e.cat.Tables())
	_, st, err := New(e.cat, DefaultConfig(ModePlanOnly)).RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSwitches == 0 {
		t.Fatalf("no plan switch on the instance built to force one: %v", st.Decisions)
	}
	if got := len(e.cat.Tables()); got != tablesBefore {
		t.Errorf("temp tables leaked: %d -> %d (%v)", tablesBefore, got, e.cat.Tables())
	}
}

// A join whose output passes a residual filter before it builds the
// next join is observed under the filter: the collector counts the rows
// the filter has yet to drop, which are no relation set's rows, so the
// record names no set.
func TestResidualFilterObservationNamesNoSet(t *testing.T) {
	e := newEnv(2048)
	e.addTable(t, "a", 3000, 200, 10)
	e.addTable(t, "b", 200, 20, 5)
	e.addTable(t, "c", 20, 5, 5)
	e.analyzeAll(t)
	src := `select a_grp, count(*) as cnt from a, b, c
		where a.a_fk = b.b_pk and b.b_fk = c.c_pk and c_val <= b_val group by a_grp`
	cfg := DefaultConfig(ModeFull)
	cfg.DisableIndexJoin = true
	_, st, err := New(e.cat, cfg).RunSQL(src, plan.Params{}, e.ctx(plan.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	unnamed := 0
	for _, d := range st.Decisions {
		if d.Rels == 0 {
			unnamed++
		}
	}
	if unnamed != 1 {
		t.Fatalf("%d records name no relation set, want the one under the filter: %v", unnamed, st.Decisions)
	}
}

// TestFlooredAggregateDemandFollowsObservedGroups: an aggregate planned
// on the demand floor (4 groups) that a collector observes at 1 000
// groups demands 1 000 × its per-group state, not 1 000 × the floor's
// share per planned group.
func TestFlooredAggregateDemandFollowsObservedGroups(t *testing.T) {
	e := newEnv(256)
	e.addTable(t, "a", 200, 200, 4) // a_grp: 4 values
	e.addTable(t, "b", 5000, 200, 7)
	e.analyzeAll(t)
	d := New(e.cat, DefaultConfig(ModeMemoryOnly))
	res, err := d.EstimateOnly(`select a_grp, sum(b_val) as s from a, b where a.a_pk = b.b_fk group by a_grp`)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompose(res.Root)
	if err != nil {
		t.Fatal(err)
	}
	var agg *plan.Agg
	for _, top := range dec.tops {
		if x, ok := unwrapTop(top).(*plan.Agg); ok {
			agg = x
		}
	}
	cnode, ok := dec.leafTop.(*plan.Collector)
	if agg == nil || !ok {
		t.Fatalf("want an aggregate over a join whose build input is observed: %s", plan.Format(res.Root))
	}
	if got := agg.Est().MemMax; got != 64<<10 {
		t.Fatalf("planned aggregate demand = %g, want the 64 KiB floor", got)
	}
	ci, _ := cnode.Input.Schema().Find("a", "a_grp")
	if ci < 0 {
		t.Fatalf("a.a_grp is not under the collector: %s", cnode.Input.Schema())
	}
	cnode.Spec.UniqueCols = [][]int{{ci}}
	ce := cnode.Est()
	obs := &plan.Observed{CollectorID: cnode.ID, Rows: ce.Rows, Bytes: ce.Bytes,
		Uniques: map[string]float64{plan.UniqueKey([]int{ci}): 1000}}
	applyImproved(dec, 0, cnode, obs, 1)
	resizeSuffix(dec, 0, cnode, obs)
	// One INTEGER key and one SUM: aggStateBytes is 9 + 4×8 + 48 bytes.
	state := catalog.KindWidth(types.KindInt) + 32 + 48
	if got := agg.Est(); got.Rows != 1000 || got.MemMax != 1000*state {
		t.Errorf("observed 1000 groups: rows %g, demand %g; want 1000 and %g", got.Rows, got.MemMax, 1000*state)
	}
}
