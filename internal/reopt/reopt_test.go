package reopt

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/memmgr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// env is a fresh database with its own simulated disk.
type env struct {
	cat  *catalog.Catalog
	pool *storage.BufferPool
	m    *storage.CostMeter
}

func newEnv(poolPages int) *env {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), poolPages)
	return &env{cat: catalog.New(pool), pool: pool, m: m}
}

func (e *env) ctx(params plan.Params) *exec.Ctx {
	if params == nil {
		params = plan.Params{}
	}
	return &exec.Ctx{Pool: e.pool, Meter: e.m, Params: params}
}

// addTable creates and fills a table with deterministic data:
// name(pk key, fk, grp, val).
func (e *env) addTable(t *testing.T, name string, rows int, fkMod, grpMod int64) *catalog.Table {
	t.Helper()
	tbl, err := e.cat.CreateTable(name, types.NewSchema(
		types.Column{Name: name + "_pk", Kind: types.KindInt, Key: true},
		types.Column{Name: name + "_fk", Kind: types.KindInt},
		types.Column{Name: name + "_grp", Kind: types.KindInt},
		types.Column{Name: name + "_val", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i) % fkMod),
			types.NewInt(int64(i) % grpMod),
			types.NewFloat(float64(i % 1000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func (e *env) analyzeAll(t *testing.T) {
	t.Helper()
	for _, name := range e.cat.Tables() {
		if err := e.cat.Analyze(name, catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
			t.Fatal(err)
		}
	}
}

func sortRows(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func rowsEqual(t *testing.T, label string, got, want []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("%s row %d col %d: %v != %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// threeJoinQuery joins a -> b -> c with a host-var filter on a, grouped.
const threeJoinQuery = `select a_grp, count(*) as cnt, avg(c_val) as av
	from a, b, c
	where a.a_fk = b.b_pk and b.b_fk = c.c_pk and a_val < :cut
	group by a_grp order by a_grp`

func buildThreeJoinEnv(t *testing.T) *env {
	e := newEnv(2048)
	e.addTable(t, "a", 6000, 500, 20)
	e.addTable(t, "b", 500, 50, 5) // b_pk joins a_fk; b_fk joins c_pk

	e.addTable(t, "c", 50, 5, 5)
	e.analyzeAll(t)
	e.cat.CreateIndex("b", "b_pk")
	e.cat.CreateIndex("c", "c_pk")
	return e
}

func runMode(t *testing.T, e *env, mode Mode, src string, params plan.Params, budget float64) ([]types.Tuple, *Stats, float64) {
	t.Helper()
	cfg := DefaultConfig(mode)
	if budget > 0 {
		cfg.MemBudget = budget
	}
	d := New(e.cat, cfg)
	before := e.m.Snapshot()
	rows, st, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	return rows, st, e.m.Snapshot().Sub(before).Cost()
}

func TestAllModesProduceIdenticalResults(t *testing.T) {
	for _, cut := range []float64{50, 999999} { // under- and over-estimates
		e := buildThreeJoinEnv(t)
		params := plan.Params{"cut": types.NewFloat(cut)}
		want, _, _ := runMode(t, e, ModeOff, threeJoinQuery, params, 0)
		for _, mode := range []Mode{ModeMemoryOnly, ModePlanOnly, ModeFull, ModeRestart} {
			got, _, _ := runMode(t, e, mode, threeJoinQuery, params, 0)
			rowsEqual(t, fmt.Sprintf("cut=%g mode=%v", cut, mode), got, want)
		}
	}
}

func TestAllModesIdenticalWithTinyMemory(t *testing.T) {
	// Force spilling everywhere: results must still agree.
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(999999)}
	want, _, _ := runMode(t, e, ModeOff, threeJoinQuery, params, 64<<10)
	for _, mode := range []Mode{ModeMemoryOnly, ModeFull} {
		got, _, _ := runMode(t, e, mode, threeJoinQuery, params, 64<<10)
		rowsEqual(t, fmt.Sprintf("mode=%v", mode), got, want)
	}
}

func TestCollectorsInsertedAndObserved(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(500)}
	_, st, _ := runMode(t, e, ModeFull, threeJoinQuery, params, 0)
	if st.CollectorsInserted == 0 {
		t.Error("no collectors inserted")
	}
	if st.Observations == 0 {
		t.Error("no observations delivered")
	}
}

// TestFigure3MemoryReallocation reproduces the paper's Figure 3
// walk-through: the optimizer over-estimates a filter's output (host
// variable, default selectivity 1/3), the Memory Manager starves the
// second join, and dynamic re-allocation — fed the observed, much
// smaller cardinality — lets the second join run in one pass.
func TestFigure3MemoryReallocation(t *testing.T) {
	e := newEnv(4096)
	// rel1: 60000 rows, filtered by a host variable. The optimizer
	// guesses 1/3 = 20000 rows; :cut = 150 actually keeps 9000. rel1's
	// estimate is the smallest relation, so it becomes the leftmost
	// build — the paper's plan shape, where the filter's error
	// propagates into every later build size. (The scans emit two of
	// their four columns; the tables are sized so that the second
	// join's true build, 9000 × 40 bytes, still outgrows the 256 KiB
	// minimum grant it is starved down to.)
	e.addTable(t, "rel1", 60000, 30000, 25)
	e.addTable(t, "rel2", 30000, 40000, 5)
	e.addTable(t, "rel3", 40000, 5, 5)
	e.analyzeAll(t)
	params := plan.Params{"cut": types.NewFloat(150)}
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :cut group by rel1_grp`

	// 1 MB cannot satisfy both joins under the optimizer's estimates,
	// but can once the observed build is known to be ~2x smaller.
	const budget = 1 << 20

	wantRows, _, offCost := runMode(t, e, ModeOff, src, params, budget)
	// The first checkpoint re-allocates: the second join's grant rises
	// by exactly the bytes its record says moved.
	cfg := DefaultConfig(ModeMemoryOnly)
	cfg.MemBudget = budget
	var join2 *plan.Est
	before := -1.0
	cfg.CheckpointHook = func(step int) {
		if step == 0 {
			before = join2.Grant
		}
	}
	d := New(e.cat, cfg)
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	join2 = memmgr.Consumers(res.Root)[1].Est()
	start := e.m.Snapshot()
	gotRows, st, err := d.RunPlan(res, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	memCost := e.m.Snapshot().Sub(start).Cost()
	rowsEqual(t, "figure3", gotRows, wantRows)
	if st.MemReallocs == 0 {
		t.Fatal("no memory re-allocation happened")
	}
	if rose := join2.Grant - before; st.Decisions[0].Step != 0 || rose <= 0 || rose != st.Decisions[0].Moved {
		t.Errorf("second join's grant rose %.0f bytes (from %.0f), the first record moved %.0f: %v",
			rose, before, st.Decisions[0].Moved, st.Decisions)
	}
	if memCost >= offCost {
		t.Errorf("memory re-allocation did not help: %.0f (realloc) vs %.0f (normal)", memCost, offCost)
	}
}

// TestFigure6PlanSwitch reproduces the Figure 5/6 walk-through: the
// optimizer badly under-estimates the filtered size of rel1 (host
// variable keeps everything), making the chosen remainder sub-optimal;
// the dispatcher materializes the running join's output and re-submits
// SQL for the remainder of the query.
func TestFigure6PlanSwitch(t *testing.T) {
	e := newEnv(8192)
	// Two host-var predicates on rel1 look very selective to the
	// optimizer (1/3 × 1/3 ≈ 150 of 1350 rows) but actually keep
	// everything. The tiny estimated outer makes an indexed
	// nested-loops join into the large rel3 look cheap; the observed
	// 9x blow-up makes the dispatcher materialize the first join and
	// re-plan the remainder (which prefers a hash join).
	e.addTable(t, "rel1", 1350, 4000, 10)
	e.addTable(t, "rel2", 4000, 60000, 5)
	e.addTable(t, "rel3", 60000, 5, 5)
	e.analyzeAll(t)
	e.cat.CreateIndex("rel3", "rel3_pk")
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :v1 and rel1_grp < :v2 group by rel1_grp`
	params := plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)}

	wantRows, _, _ := runMode(t, e, ModeOff, src, params, 0)
	gotRows, st, planCost := runMode(t, e, ModePlanOnly, src, params, 0)
	rowsEqual(t, "figure6", gotRows, wantRows)
	if st.Considered() == 0 {
		t.Fatal("equations never evaluated despite a 9x cardinality error")
	}
	if st.PlanSwitches == 0 {
		t.Fatalf("no plan switch despite severe under-estimate: %v", st.Decisions)
	}
	// The switch must beat sticking with the indexed join.
	e2 := newEnv(8192)
	e2.addTable(t, "rel1", 1350, 4000, 10)
	e2.addTable(t, "rel2", 4000, 60000, 5)
	e2.addTable(t, "rel3", 60000, 5, 5)
	e2.analyzeAll(t)
	e2.cat.CreateIndex("rel3", "rel3_pk")
	_, _, offCost := runMode(t, e2, ModeOff, src, params, 0)
	if planCost >= offCost {
		t.Errorf("plan modification did not pay off: %.0f (switched) vs %.0f (normal)", planCost, offCost)
	}
}

func TestNoReoptimizationWhenEstimatesAccurate(t *testing.T) {
	e := buildThreeJoinEnv(t)
	// Literal predicate with a MaxDiff histogram: estimates near-exact,
	// Equation 2 must keep the plan.
	src := `select a_grp, count(*) as cnt from a, b, c
		where a.a_fk = b.b_pk and b.b_fk = c.c_pk and a_val < 500
		group by a_grp`
	_, st, _ := runMode(t, e, ModeFull, src, nil, 0)
	if st.PlanSwitches != 0 {
		t.Errorf("plan switched despite accurate estimates (%d switches)", st.PlanSwitches)
	}
}

func TestSingleJoinNeverSwitches(t *testing.T) {
	// "Queries that contain zero or one joins will never get
	// re-optimized" (§3.2): by the time statistics are complete the
	// query is nearly done, and Equation 1 rejects it.
	e := buildThreeJoinEnv(t)
	src := `select a_grp, count(*) as cnt from a, b
		where a.a_fk = b.b_pk and a_val < :cut group by a_grp`
	params := plan.Params{"cut": types.NewFloat(1e9)}
	_, st, _ := runMode(t, e, ModeFull, src, params, 0)
	if st.PlanSwitches != 0 {
		t.Errorf("single-join query switched plans %d times", st.PlanSwitches)
	}
}

func TestRestartModeWorksButCostsMore(t *testing.T) {
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

	wantRows, _, _ := runMode(t, e, ModeOff, src, params, 0)
	gotRows, st, restartCost := runMode(t, e, ModeRestart, src, params, 0)
	rowsEqual(t, "restart", gotRows, wantRows)
	if st.PlanSwitches == 0 {
		t.Fatalf("restart never triggered on the instance built to force it: %v", st.Decisions)
	}
	_, _, fullCost := runMode(t, e, ModeFull, src, params, 0)
	if restartCost < fullCost {
		t.Logf("restart %.0f beat full %.0f — unexpected but not incorrect", restartCost, fullCost)
	}
}

func TestMuGuaranteeOnSimpleQueries(t *testing.T) {
	// With mu = 0.05 the overhead on queries that cannot benefit must
	// stay tiny (the paper: "none of the queries ever performed 5%
	// worse than normal").
	e := buildThreeJoinEnv(t)
	src := "select a_grp, count(*) as cnt from a where a_val < 500 group by a_grp"
	_, _, offCost := runMode(t, e, ModeOff, src, nil, 0)
	_, _, fullCost := runMode(t, e, ModeFull, src, nil, 0)
	if fullCost > offCost*1.05 {
		t.Errorf("overhead %.1f%% exceeds mu=5%%", (fullCost/offCost-1)*100)
	}
}

func TestEstimateOnly(t *testing.T) {
	e := buildThreeJoinEnv(t)
	d := New(e.cat, DefaultConfig(ModeFull))
	res, err := d.EstimateOnly(threeJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.Est().Cost <= 0 {
		t.Error("no cost estimate")
	}
	hasCollector := false
	plan.Walk(res.Root, func(n plan.Node) {
		if _, ok := n.(*plan.Collector); ok {
			hasCollector = true
		}
	})
	if !hasCollector {
		t.Error("EstimateOnly plan missing collectors")
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		ModeOff: "off", ModeMemoryOnly: "memory-only", ModePlanOnly: "plan-only",
		ModeFull: "full", ModeRestart: "restart",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

// TestParseMode: the one mode parser reads every mode's name back, and
// every alias the server and the CLI have accepted, in any case.
func TestParseMode(t *testing.T) {
	for m := ModeOff; m <= ModeRestart; m++ {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, c := range []struct {
		name string
		want Mode
	}{
		{"", ModeOff}, {"normal", ModeOff}, {"off", ModeOff},
		{"memory", ModeMemoryOnly}, {"mem", ModeMemoryOnly}, {"memory-only", ModeMemoryOnly},
		{"plan", ModePlanOnly}, {"plan-only", ModePlanOnly},
		{"full", ModeFull}, {"restart", ModeRestart},
	} {
		mixed := c.name
		if mixed != "" {
			mixed = strings.ToUpper(mixed[:1]) + mixed[1:]
		}
		for _, name := range []string{c.name, strings.ToUpper(c.name), mixed} {
			if got, err := ParseMode(name); err != nil || got != c.want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, c.want)
			}
		}
	}
	for _, name := range []string{"bogus", "fulll", "memory only", "Mode(3)"} {
		if m, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", name, m)
		}
	}
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(50)}
	if _, _, err := New(e.cat, DefaultConfig(ModeRestart+1)).RunSQL(threeJoinQuery, params, e.ctx(params)); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("a mode with no row: err = %v, want unknown mode", err)
	}
}
