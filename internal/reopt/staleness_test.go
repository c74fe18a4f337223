package reopt

import (
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// TestWriteDrivenStalenessTriggersReopt is the headline concurrent-DML
// scenario: a long-running query starts against accurate statistics, a
// concurrent transaction commits a large batch of inserts mid-query
// (bumping the stats version and shifting a base table's cardinality),
// and the in-flight query's next checkpoint trips Equation 2 — a
// re-optimization it provably would not have considered without the
// writes, since the same query with no writes keeps its plan at every
// checkpoint. Snapshot isolation keeps the result rows identical.
func TestWriteDrivenStalenessTriggersReopt(t *testing.T) {
	run := func(writeAtCheckpoint bool) (*Stats, []types.Tuple) {
		t.Helper()
		e := buildThreeJoinEnv(t)
		params := plan.Params{"cut": types.NewFloat(999999)}
		cfg := DefaultConfig(ModeFull)
		cfg.DisableIndexJoin = true // hash joins at every step -> checkpoints
		var once sync.Once
		if writeAtCheckpoint {
			cfg.CheckpointHook = func(step int) {
				once.Do(func() {
					// b is step 0's probe, not yet scanned at the first
					// checkpoint: its growth lands in the unexecuted suffix.
					tbl, err := e.cat.Table("b")
					if err != nil {
						t.Error(err)
						return
					}
					tx := e.cat.BeginTxn()
					for i := 500; i < 5000; i++ {
						if err := tx.Insert(tbl, types.Tuple{
							types.NewInt(int64(i)),
							types.NewInt(int64(i % 50)),
							types.NewInt(int64(i % 5)),
							types.NewFloat(float64(i % 1000)),
						}); err != nil {
							t.Error(err)
							tx.Abort()
							return
						}
					}
					tx.Commit()
				})
			}
		}
		d := New(e.cat, cfg)
		defer d.Cleanup()
		// The query reads under a registered snapshot, as the session
		// layer arranges: concurrent commits must not change its rows.
		rd := e.cat.BeginRead()
		defer rd.End()
		ctx := e.ctx(params)
		ctx.Snap = rd.Snapshot()
		rows, st, err := d.RunSQL(threeJoinQuery, params, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st, rows
	}

	baseSt, baseRows := run(false)
	if len(baseSt.Decisions) == 0 || baseSt.Observations == 0 {
		t.Fatalf("baseline made no checkpoint decisions (obs=%d); scenario needs checkpoints",
			baseSt.Observations)
	}
	for _, d := range baseSt.Decisions {
		if d.Cause != CauseEq2 || d.Growth != 1 {
			t.Fatalf("baseline tripped a checkpoint without any writes: %v", d)
		}
	}

	st, rows := run(true)
	rowsEqual(t, "snapshot isolation under concurrent commit", rows, baseRows)
	tripped, refreshed := false, false
	for _, d := range st.Decisions {
		tripped = tripped || d.Cause != CauseEq2 // Eq2 passed: eq1 keep, trial, or switch
		refreshed = refreshed || d.Growth != 1
	}
	if !tripped {
		t.Errorf("10x growth of b never tripped Equation 2; decisions: %v", st.Decisions)
	}
	if !refreshed {
		t.Errorf("no checkpoint folded the mid-query statistics growth in; decisions: %v", st.Decisions)
	}
}
