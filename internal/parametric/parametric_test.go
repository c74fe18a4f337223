package parametric

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/storage"
	"repro/internal/types"
)

type env struct {
	cat   *catalog.Catalog
	pool  *storage.BufferPool
	meter *storage.CostMeter
}

// newEnv builds the Figure-6-style fixture: a tiny selectivity scenario
// favors an indexed join into the big rel3, a keep-everything scenario
// favors a hash join.
func newEnv(t *testing.T) *env {
	t.Helper()
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 8192)
	cat := catalog.New(pool)
	mk := func(name string, rows, fkMod int) {
		tbl, err := cat.CreateTable(name, types.NewSchema(
			types.Column{Name: name + "_pk", Kind: types.KindInt, Key: true},
			types.Column{Name: name + "_fk", Kind: types.KindInt},
			types.Column{Name: name + "_grp", Kind: types.KindInt},
			types.Column{Name: name + "_val", Kind: types.KindFloat},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tbl.Insert(types.Tuple{
				types.NewInt(int64(i)), types.NewInt(int64(i % fkMod)),
				types.NewInt(int64(i % 10)), types.NewFloat(float64(i % 1000)),
			})
		}
		if err := cat.Analyze(name, catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
			t.Fatal(err)
		}
	}
	mk("rel1", 1350, 4000)
	mk("rel2", 4000, 60000)
	mk("rel3", 60000, 5)
	cat.CreateIndex("rel3", "rel3_pk")
	return &env{cat: cat, pool: pool, meter: m}
}

const paramQuery = `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
	where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
	and rel1_val < :v1 and rel1_grp < :v2 group by rel1_grp`

// opt is the engine's optimizer over the fixture: the default budget
// and the fixture's pool.
func (e *env) opt() *optimizer.Optimizer {
	c := reopt.DefaultConfig(reopt.ModeOff)
	c.PoolPages = 8192
	return reopt.New(e.cat, c).Optimizer()
}

func TestPrepareEnumeratesDistinctShapes(t *testing.T) {
	e := newEnv(t)
	p, err := Prepare(e.cat, paramQuery, e.opt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Candidates) < 2 {
		for _, c := range p.Candidates {
			t.Logf("candidate %v: %s", c.Scenarios, c.Shape)
		}
		t.Fatalf("only %d candidate shapes; scenarios should disagree on this fixture", len(p.Candidates))
	}
	// The selective scenario should use the index join; the
	// keep-everything scenario should not.
	shapes := map[float64]string{}
	for _, c := range p.Candidates {
		for _, s := range c.Scenarios {
			shapes[s] = c.Shape
		}
	}
	if !strings.Contains(shapes[0.01], "ij(") {
		t.Errorf("selective scenario shape = %s, want an index join", shapes[0.01])
	}
	if strings.Contains(shapes[1.0], "ij(") {
		t.Errorf("keep-all scenario shape = %s, want hash joins only", shapes[1.0])
	}
}

func TestPrepareNoHostVarsSingleCandidate(t *testing.T) {
	e := newEnv(t)
	p, err := Prepare(e.cat, "select rel1_grp, count(*) as cnt from rel1 group by rel1_grp", e.opt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Candidates) != 1 {
		t.Errorf("candidates = %d, want 1 for a host-var-free query", len(p.Candidates))
	}
}

func TestActualSelectivity(t *testing.T) {
	e := newEnv(t)
	p, err := Prepare(e.cat, paramQuery, e.opt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bindings that keep everything.
	all := plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)}
	if got := p.ActualSelectivity(all); got < 0.9 {
		t.Errorf("keep-all selectivity = %g, want ~1", got)
	}
	// Bindings that keep ~1%.
	few := plan.Params{"v1": types.NewFloat(10), "v2": types.NewFloat(1e9)}
	if got := p.ActualSelectivity(few); got > 0.3 {
		t.Errorf("selective bindings selectivity = %g, want small", got)
	}
}

func TestChoosePicksMatchingScenario(t *testing.T) {
	e := newEnv(t)
	p, err := Prepare(e.cat, paramQuery, e.opt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, scenario, err := p.Choose(plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if scenario != 1.0 {
		t.Errorf("chose scenario %g for keep-everything bindings, want 1.0", scenario)
	}
	if strings.Contains(Shape(res.Root), "ij(") {
		t.Errorf("keep-all choice still contains an index join:\n%s", obs.FormatPlan(res.Root))
	}

	_, scenario, err = p.Choose(plan.Params{"v1": types.NewFloat(5), "v2": types.NewFloat(0)})
	if err != nil {
		t.Fatal(err)
	}
	if scenario != 0.01 {
		t.Errorf("chose scenario %g for empty bindings, want 0.01", scenario)
	}
}

// TestHybridBeatsStaticMistake runs the end-to-end hybrid: the static
// optimizer (default selectivities) picks the blow-up-prone index join;
// the parametric plan, seeing the actual bindings, starts with the hash
// join directly — no mid-query switch needed for the anticipated case.
func TestHybridBeatsStaticMistake(t *testing.T) {
	e := newEnv(t)
	params := plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)}
	ctx := func() *exec.Ctx {
		e.pool.EvictAll()
		return &exec.Ctx{Pool: e.pool, Meter: e.meter, Params: params}
	}
	measure := func(f func(c *exec.Ctx) ([]types.Tuple, error)) (float64, []types.Tuple) {
		c := ctx()
		before := e.meter.Snapshot()
		rows, err := f(c)
		if err != nil {
			t.Fatal(err)
		}
		return e.meter.Snapshot().Sub(before).Cost(), rows
	}

	rcfg := reopt.DefaultConfig(reopt.ModeOff)
	rcfg.PoolPages = 8192
	staticCost, staticRows := measure(func(c *exec.Ctx) ([]types.Tuple, error) {
		d := reopt.New(e.cat, rcfg)
		rows, _, err := d.RunSQL(paramQuery, params, c)
		return rows, err
	})

	p, err := Prepare(e.cat, paramQuery, e.opt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hybridCost, hybridRows := measure(func(c *exec.Ctx) ([]types.Tuple, error) {
		res, _, err := p.Choose(params)
		if err != nil {
			return nil, err
		}
		hcfg := reopt.DefaultConfig(reopt.ModeFull)
		hcfg.PoolPages = 8192
		d := reopt.New(e.cat, hcfg)
		rows, st, err := d.RunPlan(res, params, c)
		if err != nil {
			return nil, err
		}
		if st.PlanSwitches != 0 {
			t.Errorf("hybrid needed %d switches for an anticipated case", st.PlanSwitches)
		}
		return rows, err
	})

	if len(staticRows) != len(hybridRows) {
		t.Fatalf("result mismatch: %d vs %d rows", len(staticRows), len(hybridRows))
	}
	if hybridCost >= staticCost {
		t.Errorf("hybrid %0.f did not beat static mistake %.0f", hybridCost, staticCost)
	}
}

func TestShapeStability(t *testing.T) {
	e := newEnv(t)
	p, _ := Prepare(e.cat, paramQuery, e.opt(), nil)
	res1, _, _ := p.Choose(plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)})
	res2, _, _ := p.Choose(plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)})
	if Shape(res1.Root) != Shape(res2.Root) {
		t.Error("Choose is not deterministic")
	}
}
