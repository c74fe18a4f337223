package bench

import (
	"testing"

	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/tpcd"
)

// TestCollectorOverheadUnderMu checks the §2.5 guarantee end to end on
// the TPC-D workload: the statistics-collection CPU the meter actually
// charged stays within the SCIA's μ budget — both against the
// optimizer's cost estimate (the quantity the budget is defined on) and
// against the measured query cost. Measured fractions sit around 0.1-
// 0.3% of query cost, well under the default μ = 5%. A collector goes
// only where a checkpoint reads it, so the zero-join plans (Q1, Q6)
// carry none, every other query at least one, and each report that
// arrives is read by exactly one checkpoint.
func TestCollectorOverheadUnderMu(t *testing.T) {
	env, err := NewEnv(Default())
	if err != nil {
		t.Fatal(err)
	}
	charged := false
	mu := reopt.DefaultConfig(reopt.ModeFull).Mu
	for _, q := range tpcd.Queries() {
		before := env.Meter.Snapshot()
		res, err := env.Exec(q.SQL, session.Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		st, delta := res.Stats, env.Meter.Snapshot().Sub(before)
		statCost := float64(delta.StatCPU) * delta.Weights.StatCPU
		if q.Joins == 0 && st.CollectorsInserted != 0 {
			t.Errorf("%s: %d collectors on a zero-join plan, which has no checkpoint", q.Name, st.CollectorsInserted)
		}
		if q.Joins > 0 && st.CollectorsInserted == 0 {
			t.Errorf("%s: no collectors inserted in full mode", q.Name)
		}
		if st.Observations != len(st.Decisions) {
			t.Errorf("%s: %d collector reports, %d checkpoint records", q.Name, st.Observations, len(st.Decisions))
		}
		if statCost > 0 {
			charged = true
		}
		if est := st.EstimatedCost; statCost > mu*est {
			t.Errorf("%s: collection cost %.2f exceeds mu budget %.2f (mu=%.2f of estimate %.0f)",
				q.Name, statCost, mu*est, mu, est)
		}
		if total := delta.Cost(); statCost > mu*total {
			t.Errorf("%s: collection cost %.2f is %.2f%% of measured cost %.0f, over mu=%.2f",
				q.Name, statCost, 100*statCost/total, total, mu)
		}
	}
	if !charged {
		t.Error("no query charged any statistics-collection CPU; the overhead measurement is vacuous")
	}
}
