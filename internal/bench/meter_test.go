package bench

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/reopt"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// TestQueryMeterHoldsEveryCharge runs each TPC-D query from a cold pool
// on a tributary of the engine's meter, as a session runs a statement,
// and holds the engine's meter to what that tributary forwarded: every
// read, spill re-read and write-back the query caused is charged to the
// meter it names, none to the disk's. Under the benchmark's pool and
// budget Q3, Q5, Q7 and Q10 spill, so their partitions' re-reads and
// write-backs are in the totals.
func TestQueryMeterHoldsEveryCharge(t *testing.T) {
	env, err := NewEnv(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpcd.Queries() {
		for _, mode := range []reopt.Mode{reopt.ModeOff, reopt.ModeFull} {
			env.Pool.EvictAll()
			cfg := reopt.DefaultConfig(mode)
			cfg.MemBudget, cfg.PoolPages = env.Cfg.MemBudget, float64(env.Pool.Capacity())
			own := env.Meter.Tributary()
			before := env.Meter.Snapshot()
			if _, _, err := reopt.New(env.Cat, cfg).RunSQL(q.SQL, nil, &exec.Ctx{Pool: env.Pool, Meter: own}); err != nil {
				t.Fatalf("%s %s: %v", q.Name, mode, err)
			}
			own.Flush()
			got, want := own.Snapshot(), env.Meter.Snapshot().Sub(before)
			if gap := want.Sub(got); gap != (storage.Snapshot{Weights: gap.Weights}) {
				t.Errorf("%s %s: the engine's meter moved by %v, the query's holds %v (gap %.0f)",
					q.Name, mode, want, got, gap.Cost())
			}
		}
	}
}
