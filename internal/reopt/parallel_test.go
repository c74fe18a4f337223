package reopt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/types"
)

// runDegree executes a query at the given parallel degree.
func runDegree(t *testing.T, e *env, mode Mode, degree int, src string, params plan.Params, budget float64) ([]types.Tuple, *Stats) {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.Degree = degree
	if budget > 0 {
		cfg.MemBudget = budget
	}
	d := New(e.cat, cfg)
	rows, st, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatalf("mode %v degree %d: %v", mode, degree, err)
	}
	return rows, st
}

// TestParallelMatchesSerial: every mode and degree produces the same
// rows as serial execution — parallelism must be invisible in results.
func TestParallelMatchesSerial(t *testing.T) {
	for _, cut := range []float64{50, 999999} {
		e := buildThreeJoinEnv(t)
		params := plan.Params{"cut": types.NewFloat(cut)}
		want, _, _ := runMode(t, e, ModeOff, threeJoinQuery, params, 0)
		for _, mode := range []Mode{ModeOff, ModeMemoryOnly, ModeFull} {
			for _, deg := range []int{2, 4} {
				got, st := runDegree(t, e, mode, deg, threeJoinQuery, params, 0)
				rowsEqual(t, fmt.Sprintf("cut=%g mode=%v deg=%d", cut, mode, deg), got, want)
				if st.Degree != deg {
					t.Errorf("stats degree = %d, want %d", st.Degree, deg)
				}
				if st.WorkersSpawned == 0 {
					t.Errorf("cut=%g mode=%v deg=%d: no workers spawned", cut, mode, deg)
				}
			}
		}
	}
}

// TestParallelSwitchCleanup: the Figure-6 fixture forces a mid-query
// plan switch while the running segment is gather-topped. The switch
// must materialize the gathered stream correctly, the re-optimized
// remainder must itself run parallel, and no temp tables may survive.
func TestParallelSwitchCleanup(t *testing.T) {
	e, src, params := spliceEnv(t)
	want, _, _ := runMode(t, e, ModeOff, src, params, 0)
	for _, strat := range []Strategy{StrategyMaterialize, StrategySplice} {
		e2, src, params := spliceEnv(t)
		tablesBefore := len(e2.cat.Tables())
		cfg := DefaultConfig(ModePlanOnly)
		cfg.Degree = 4
		cfg.Strategy = strat
		d := New(e2.cat, cfg)
		got, st, err := d.RunSQL(src, params, e2.ctx(params))
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		if st.PlanSwitches == 0 {
			t.Fatalf("strategy %v: fixture no longer triggers a switch at degree 4", strat)
		}
		rowsEqual(t, fmt.Sprintf("parallel switch %v", strat), got, want)
		if got := len(e2.cat.Tables()); got != tablesBefore {
			t.Errorf("strategy %v: temp tables leaked: %d -> %d (%v)",
				strat, tablesBefore, got, e2.cat.Tables())
		}
	}
}

// TestParallelForcedSwitchSpilledJoin drives the hardest interaction in
// the engine at once: parallel degree 4, a memory budget small enough
// that the first (completed-segment) hash join spills partitions, and a
// fixture whose stale estimates force a mid-query plan switch at the
// first checkpoint. The switch must materialize (or splice) the
// completed segment's output, re-parallelize the remainder, and come
// out with serial-identical rows and zero residue — spilled partitions,
// temp tables, and heap pages all reclaimed. Runs under -race in CI.
func TestParallelForcedSwitchSpilledJoin(t *testing.T) {
	// Aggregating over every column of rel1 keeps the build side at the
	// table's full width: with two of its four columns pruned away,
	// 1350 tuples split four ways fit each worker's share of the
	// minimum grant and nothing would spill.
	wide := func(src string) string {
		return strings.Replace(src, "count(*) as cnt", "count(*) as cnt, sum(rel1_val) as sv, max(rel1_pk) as mp", 1)
	}
	e, src, params := spliceEnv(t)
	want, _, _ := runMode(t, e, ModeOff, wide(src), params, 0)
	for _, strat := range []Strategy{StrategyMaterialize, StrategySplice} {
		e2, src, params := spliceEnv(t)
		src = wide(src)
		tablesBefore := len(e2.cat.Tables())
		pagesBefore := e2.pool.Disk().NumPages()
		inj := faultinject.Enable()
		// The completed segment's join builds against a 9x-underestimated
		// grant, so its build side spills to partitions; the spill site
		// fires when those partitions are probed, which the materialize
		// strategy does while draining the segment into the temp table —
		// entirely before the remainder's first dispatch step. Snapshot
		// the spill count there to attribute it to the completed segment.
		spillsAtRemainder := -1
		inj.Arm("reopt.checkpoint", faultinject.Fault{Do: func() {
			inj.Arm("reopt.step", faultinject.Fault{Do: func() {
				spillsAtRemainder = inj.Hits("exec.hashjoin.spill")
			}})
		}})

		cfg := DefaultConfig(ModePlanOnly)
		cfg.Degree = 4
		cfg.Strategy = strat
		cfg.MemBudget = 128 << 10
		d := New(e2.cat, cfg)
		got, st, err := d.RunSQL(src, params, e2.ctx(params))
		totalSpills := inj.Hits("exec.hashjoin.spill")
		faultinject.Disable()
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		if st.PlanSwitches == 0 {
			t.Fatalf("strategy %v: fixture no longer forces a switch at degree 4", strat)
		}
		if strat == StrategyMaterialize {
			if spillsAtRemainder <= 0 {
				t.Fatalf("strategy %v: completed segment never spilled (spills before remainder = %d); the scenario is not exercised",
					strat, spillsAtRemainder)
			}
		} else if totalSpills == 0 {
			// The splice strategy drains the live (spilled) join lazily
			// inside the remainder, so only the total is attributable.
			t.Fatalf("strategy %v: no hash join spilled; the scenario is not exercised", strat)
		}
		if st.WorkersSpawned == 0 {
			t.Fatalf("strategy %v: no workers spawned at degree 4", strat)
		}
		rowsEqual(t, fmt.Sprintf("forced switch %v", strat), got, want)
		if gotN := len(e2.cat.Tables()); gotN != tablesBefore {
			t.Errorf("strategy %v: temp tables leaked: %d -> %d (%v)",
				strat, tablesBefore, gotN, e2.cat.Tables())
		}
		if gotP := e2.pool.Disk().NumPages(); gotP != pagesBefore {
			t.Errorf("strategy %v: heap pages leaked: %d -> %d", strat, pagesBefore, gotP)
		}
	}
}

// TestParallelSpilledJoin: tiny memory forces every worker's join to
// spill; results must still match.
func TestParallelSpilledJoin(t *testing.T) {
	e := buildThreeJoinEnv(t)
	params := plan.Params{"cut": types.NewFloat(999999)}
	want, _, _ := runMode(t, e, ModeOff, threeJoinQuery, params, 64<<10)
	got, _ := runDegree(t, e, ModeFull, 4, threeJoinQuery, params, 64<<10)
	rowsEqual(t, "spilled parallel", got, want)
}
