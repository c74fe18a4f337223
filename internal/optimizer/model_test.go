package optimizer_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/tpcd"
)

// TestSelfCostMatchesPlanning: for every node of each TPC-D query's plan
// under bench.Default(), the SCIA's collectors included, SelfCost under
// the grant planning assumed returns the self cost stored at plan time,
// and Resize leaves the planned size as it is. A checkpoint prices and
// sizes the unexecuted suffix with the same two functions, so Equation
// 2's improved estimate and the promise it is compared with come from
// one model.
func TestSelfCostMatchesPlanning(t *testing.T) {
	cfg := bench.Default()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := reopt.DefaultConfig(reopt.ModeFull)
	rc.MemBudget, rc.PoolPages = cfg.MemBudget, float64(cfg.PoolPages)
	d := reopt.New(env.Cat, rc)
	o := d.Optimizer()
	collectors := 0
	for _, q := range tpcd.Queries() {
		res, err := d.EstimateOnly(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		plan.Walk(res.Root, func(n plan.Node) {
			if _, ok := n.(*plan.Collector); ok {
				collectors++
			}
			e := n.Est()
			if got := o.SelfCost(n, o.GrantFor(e.MemMax)); got != e.SelfCost {
				t.Errorf("%s %s [%s]: SelfCost = %v, planned %v", q.Name, n.Label(), n.Describe(), got, e.SelfCost)
			}
			planned := *e
			optimizer.Resize(n)
			if *e != planned {
				t.Errorf("%s %s [%s]: Resize moved %+v to %+v", q.Name, n.Label(), n.Describe(), planned, *e)
			}
		})
	}
	if collectors == 0 {
		t.Error("no plan carries a collector")
	}
}
