package reopt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// TestReallocationNeverAddsSpillIO is a regression test for a subtle
// bug: dynamic memory re-allocation used to honor a scaled-down MemMax
// estimate and take memory away from a pending join, introducing a spill
// the initial allocation had already avoided (observed as +38% on Q7
// with fresh statistics). With accurate estimates, running with
// re-optimization enabled must never increase spill I/O.
func TestReallocationNeverAddsSpillIO(t *testing.T) {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 256)
	cat := catalog.New(pool)
	if err := tpcd.Load(cat, tpcd.Config{SF: 0.01, Seed: 0}); err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) storage.Snapshot {
		pool.EvictAll()
		cfg := DefaultConfig(mode)
		cfg.MemBudget = 2 << 20
		cfg.PoolPages = 256
		d := New(cat, cfg)
		before := m.Snapshot()
		q, _ := tpcd.ByName("Q7")
		if _, _, err := d.RunSQL(q.SQL, plan.Params{}, &exec.Ctx{Pool: pool, Meter: m, Params: plan.Params{}}); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Sub(before)
	}
	off := run(ModeOff)
	mem := run(ModeMemoryOnly)
	if mem.PageWrites > off.PageWrites {
		t.Errorf("memory re-allocation added spill writes: %d vs %d", mem.PageWrites, off.PageWrites)
	}
	if mem.Cost() > off.Cost()*1.05 {
		t.Errorf("memory-only mode %.0f exceeds normal %.0f by more than the mu budget", mem.Cost(), off.Cost())
	}
}
