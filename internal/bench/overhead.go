package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/tpcd"
)

// OverheadRow is one query's live-progress monitoring overhead: real
// wall-clock time with per-operator progress tracking on versus off.
// Unlike every other figure, simulated cost cannot measure this — the
// instrumentation charges nothing to the meter by design — so the
// harness times actual execution, takes the minimum over reps to shed
// scheduler noise, and interleaves the two arms so drift hits both.
type OverheadRow struct {
	Query  string     `json:"query"`
	Class  tpcd.Class `json:"class"`
	BaseNS int64      `json:"base_ns"` // min wall nanos, progress off
	ProgNS int64      `json:"prog_ns"` // min wall nanos, progress on
	Ratio  float64    `json:"ratio"`   // ProgNS / BaseNS
}

// ProgressOverhead measures monitoring overhead on the medium and
// complex queries (the simple ones finish too fast to time reliably),
// running full re-optimization through a session manager — the same
// path production queries take, so the measurement includes the
// progress registry, the always-on trace tee, and the per-operator
// wrappers.
func ProgressOverhead(cfg Config, reps int) ([]OverheadRow, error) {
	if reps < 1 {
		reps = 3
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	m := session.NewManager(env.Cat, env.Pool, env.Meter, session.Config{
		MemBudget: env.Cfg.MemBudget,
	})
	sess := m.Session()
	run := func(q tpcd.Query, noProgress bool) (time.Duration, error) {
		start := time.Now()
		_, err := sess.Exec(context.Background(), q.SQL, session.Options{
			Mode:       reopt.ModeFull,
			NoProgress: noProgress,
		})
		return time.Since(start), err
	}
	var rows []OverheadRow
	for _, q := range tpcd.Queries() {
		if q.Class == tpcd.Simple {
			continue
		}
		// One unmeasured run per arm warms the plan cache and buffer
		// pool so the measured reps compare steady states.
		for _, warm := range []bool{true, false} {
			if _, err := run(q, warm); err != nil {
				return nil, fmt.Errorf("%s warmup: %w", q.Name, err)
			}
		}
		base, prog := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			b, err := run(q, true)
			if err != nil {
				return nil, fmt.Errorf("%s base: %w", q.Name, err)
			}
			p, err := run(q, false)
			if err != nil {
				return nil, fmt.Errorf("%s progress: %w", q.Name, err)
			}
			if b < base {
				base = b
			}
			if p < prog {
				prog = p
			}
		}
		ratio := 0.0
		if base > 0 {
			ratio = float64(prog) / float64(base)
		}
		rows = append(rows, OverheadRow{
			Query: q.Name, Class: q.Class,
			BaseNS: base.Nanoseconds(), ProgNS: prog.Nanoseconds(), Ratio: ratio,
		})
	}
	return rows, nil
}

// OverheadSummary condenses the overhead rows into the gated columns.
type OverheadSummary struct {
	// GeomeanRatio is the geometric mean of per-query wall-time ratios
	// (progress on / off); the CI gate bounds it.
	GeomeanRatio float64 `json:"geomean_ratio"`
	// MaxRatio is the worst single query.
	MaxRatio float64 `json:"max_ratio"`
	// Skipped marks a summary with zero valid measurements — gates must
	// fail, not pass, on it.
	Skipped bool `json:"skipped,omitempty"`
}

// SummarizeOverhead computes the geomean and worst-case ratios.
func SummarizeOverhead(rows []OverheadRow) OverheadSummary {
	var s OverheadSummary
	var g geomean
	for _, r := range rows {
		if g.add(r.Ratio) && r.Ratio > s.MaxRatio {
			s.MaxRatio = r.Ratio
		}
	}
	s.GeomeanRatio, _ = g.value()
	s.Skipped = g.n == 0
	return s
}

// FormatOverhead renders the overhead rows as an aligned table.
func FormatOverhead(title string, rows []OverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-5s %-8s %12s %12s %8s\n",
		"query", "class", "base", "progress", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-8s %12s %12s %7.3fx\n",
			r.Query, r.Class,
			time.Duration(r.BaseNS).Round(time.Microsecond),
			time.Duration(r.ProgNS).Round(time.Microsecond),
			r.Ratio)
	}
	return b.String()
}
