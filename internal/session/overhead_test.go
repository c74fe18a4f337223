package session

import (
	"context"
	"testing"
	"time"

	"repro/internal/reopt"
	"repro/internal/tpcd"
)

// TestMonitoringOverheadBound pins the cost of live-progress monitoring
// on the TPC-D smoke query: the CPU time of a run with the per-operator
// counters on must stay within 5% of the same query with them off. Each
// attempt takes the min over interleaved reps and the test passes on the
// best of a few attempts — a genuine regression fails all of them.
func TestMonitoringOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the ratio")
	}
	if testing.Short() {
		t.Skip("a timed measurement")
	}

	_, m := newTPCDManager(t, Config{})
	q, err := tpcd.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	sess := m.Session()
	run := func(noProgress bool) time.Duration {
		start := cpuTime(t)
		if _, err := sess.Exec(context.Background(), q.SQL, Options{
			Mode:       reopt.ModeFull,
			NoProgress: noProgress,
		}); err != nil {
			t.Fatal(err)
		}
		return cpuTime(t) - start
	}

	// Warm the plan cache and buffer pool for both arms.
	run(true)
	run(false)

	const (
		attempts = 4
		reps     = 5
		bound    = 1.05
	)
	best := 0.0
	for a := 0; a < attempts; a++ {
		base, prog := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < reps; r++ {
			if b := run(true); b < base {
				base = b
			}
			if p := run(false); p < prog {
				prog = p
			}
		}
		ratio := float64(prog) / float64(base)
		if best == 0 || ratio < best {
			best = ratio
		}
		if ratio <= bound {
			t.Logf("attempt %d: ratio %.3f (base %v, progress %v)", a, ratio, base, prog)
			return
		}
	}
	t.Fatalf("monitoring overhead exceeds %.0f%% in every attempt: best ratio %.3f",
		(bound-1)*100, best)
}
