package bench

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/tpcd"
)

// TestCollectorOverheadUnderMu checks the §2.5 guarantee end to end on
// the TPC-D workload: the statistics-collection CPU the meter actually
// charged stays within the SCIA's μ budget — both against the
// optimizer's cost estimate (the quantity the budget is defined on) and
// against the measured query cost. Measured fractions sit around 0.1-
// 0.3% of query cost, well under the default μ = 5%.
func TestCollectorOverheadUnderMu(t *testing.T) {
	env, err := NewEnv(Default())
	if err != nil {
		t.Fatal(err)
	}
	charged := false
	for _, q := range tpcd.Queries() {
		env.Pool.EvictAll()
		cfg := reopt.DefaultConfig(reopt.ModeFull)
		cfg.MemBudget = env.Cfg.MemBudget
		cfg.PoolPages = float64(env.Cfg.PoolPages)
		d := reopt.New(env.Cat, cfg)
		ctx := &exec.Ctx{Pool: env.Pool, Meter: env.Meter, Params: plan.Params{}}
		before := env.Meter.Snapshot()
		_, st, err := d.RunSQL(q.SQL, plan.Params{}, ctx)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		delta := env.Meter.Snapshot().Sub(before)
		statCost := float64(delta.StatCPU) * delta.Weights.StatCPU
		if st.CollectorsInserted == 0 {
			t.Errorf("%s: no collectors inserted in full mode", q.Name)
		}
		if statCost > 0 {
			charged = true
		}
		if est := st.EstimatedCost; statCost > cfg.Mu*est {
			t.Errorf("%s: collection cost %.2f exceeds mu budget %.2f (mu=%.2f of estimate %.0f)",
				q.Name, statCost, cfg.Mu*est, cfg.Mu, est)
		}
		if total := delta.Cost(); statCost > cfg.Mu*total {
			t.Errorf("%s: collection cost %.2f is %.2f%% of measured cost %.0f, over mu=%.2f",
				q.Name, statCost, 100*statCost/total, total, cfg.Mu)
		}
	}
	if !charged {
		t.Error("no query charged any statistics-collection CPU; the overhead measurement is vacuous")
	}
}
