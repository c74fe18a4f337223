package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/tpcd"
)

// ParallelRow is one (query, degree) measurement of the intra-query
// parallelism sweep. Cost is the metered resource total (all workers'
// charges). ElapsedMs is what a stopwatch said about the run (the
// fastest of parallelReps), and MeasuredSpeedup the serial run's
// elapsed time over this one's.
type ParallelRow struct {
	Query           string     `json:"query"`
	Class           tpcd.Class `json:"class"`
	Degree          int        `json:"degree"`
	Cost            float64    `json:"cost"`
	ElapsedMs       float64    `json:"elapsed_ms"`
	MeasuredSpeedup float64    `json:"measured_speedup"` // elapsed(degree 1) / elapsed(this degree)
	Workers         int        `json:"workers"`
	Switches        int        `json:"switches"`
}

// parallelReps is how often each (query, degree) cell runs; the fastest
// run is the cell's elapsed time.
const parallelReps = 3

// Parallel sweeps degree 1..maxDegree over the medium and complex
// queries under full re-optimization with the configured stale
// statistics — the workload where checkpoints, collector merges, and
// plan switches all fire on parallel segments. Results at every degree
// must be identical (the harness cross-checks row counts); the
// interesting columns are the measured speedup and whether the switch
// rate stays put as the degree grows.
func Parallel(cfg Config, maxDegree int) ([]ParallelRow, error) {
	if maxDegree < 1 {
		maxDegree = 1
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ParallelRow
	for _, q := range tpcd.Queries() {
		if q.Class == tpcd.Simple {
			continue
		}
		var serialMs float64
		var serialRows int
		for deg := 1; deg <= maxDegree; deg *= 2 {
			var res *session.Result
			ms := math.Inf(1)
			for rep := 0; rep < parallelReps; rep++ {
				t0 := time.Now()
				var err error
				res, err = env.Exec(q.SQL, session.Options{Mode: reopt.ModeFull, Parallel: deg})
				if err != nil {
					return nil, fmt.Errorf("%s degree %d: %w", q.Name, deg, err)
				}
				ms = math.Min(ms, float64(time.Since(t0))/float64(time.Millisecond))
			}
			n := len(res.Rows)
			if deg == 1 {
				serialMs, serialRows = ms, n
			} else if n != serialRows {
				return nil, fmt.Errorf("%s degree %d: %d rows, serial produced %d",
					q.Name, deg, n, serialRows)
			}
			rows = append(rows, ParallelRow{
				Query: q.Name, Class: q.Class, Degree: deg,
				Cost: res.Cost, ElapsedMs: ms, MeasuredSpeedup: serialMs / ms,
				Workers: res.Stats.WorkersSpawned, Switches: res.Stats.PlanSwitches,
			})
		}
	}
	return rows, nil
}

// ParallelSummary condenses the sweep into the per-degree geometric-mean
// measured speedup the speedup gate reads.
type ParallelSummary struct {
	// MeasuredSpeedup maps "d<degree>" to the geometric mean of the
	// stopwatch speedups at that degree across queries.
	MeasuredSpeedup map[string]float64 `json:"measured_speedup"`
	// Skipped lists "d<degree>" keys with zero qualifying measurements:
	// their MeasuredSpeedup entry is absent (not 1.0, not 0), so a reader
	// of that degree sees "nothing was measured" rather than a zero.
	Skipped []string `json:"skipped,omitempty"`
}

// geomean accumulates the geometric mean of the positive finite values
// added to it.
type geomean struct {
	logSum float64
	n      int
}

// add reports whether v qualified.
func (g *geomean) add(v float64) bool {
	if !(v > 0) || math.IsInf(v, 0) {
		return false
	}
	g.logSum += math.Log(v)
	g.n++
	return true
}

// value reports the mean, and false when nothing qualified or the mean
// overflows.
func (g geomean) value() (float64, bool) {
	if g.n == 0 {
		return 0, false
	}
	v := math.Exp(g.logSum / float64(g.n))
	return v, !math.IsInf(v, 0)
}

// SummarizeParallel computes the per-degree speedup column.
func SummarizeParallel(rows []ParallelRow) ParallelSummary {
	byDeg := map[int]*geomean{}
	for _, r := range rows {
		g := byDeg[r.Degree]
		if g == nil {
			g = &geomean{}
			byDeg[r.Degree] = g
		}
		g.add(r.MeasuredSpeedup)
	}
	s := ParallelSummary{MeasuredSpeedup: map[string]float64{}}
	for deg, g := range byDeg {
		key := fmt.Sprintf("d%d", deg)
		if v, ok := g.value(); ok {
			s.MeasuredSpeedup[key] = v
		} else {
			s.Skipped = append(s.Skipped, key)
		}
	}
	sort.Strings(s.Skipped)
	return s
}

// FormatParallel renders the sweep as an aligned table.
func FormatParallel(title string, rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-5s %-8s %3s %10s %10s %9s %8s %3s\n",
		"query", "class", "deg", "cost", "elapsed_ms", "measured", "workers", "sw")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-8s %3d %10.0f %10.1f %8.2fx %8d %3d\n",
			r.Query, r.Class, r.Degree, r.Cost, r.ElapsedMs, r.MeasuredSpeedup, r.Workers, r.Switches)
	}
	return b.String()
}
