package midquery

// Observability must not move the simulated cost: EXPLAIN ANALYZE and
// the returned trace are opt-in per query. EXPLAIN ANALYZE times the
// query's progress record, so the executor takes meter snapshots around
// operator calls only then. Every trace emit is gated on a nil-safe
// Enabled(). The test below pins the simulated-cost invariant — the
// meter never sees the instrumentation — and the benchmarks measure the
// wall-clock side: BenchmarkQueryObservabilityDisabled is the default
// path, BenchmarkQueryObservabilityEnabled carries a trace plus the
// timed record, and the per-hook cost of the disabled path is the
// sub-nanosecond BenchmarkDisabledTraceEmit in internal/obs.

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExplainAnalyzeRollsUpParallelWorkers: at degree 2 every gather
// renders its worker rollup — how many worker pipelines ran under it
// (a multiple of the degree: a join region runs a join and a probe
// pipeline per partition) and the slowest one's cost.
func TestExplainAnalyzeRollsUpParallelWorkers(t *testing.T) {
	db := openTPCD(t, 0.002, 0)
	res, err := db.ExplainAnalyze(Q("Q5").SQL, ExecOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	rollup := regexp.MustCompile(` workers=(\d+) max-worker-time=\d`)
	gathers := 0
	for _, line := range strings.Split(res.Plan, "\n") {
		if !strings.Contains(line, "exchange [gather x2]") {
			continue
		}
		gathers++
		m := rollup.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("gather without its worker rollup: %s", strings.TrimSpace(line))
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n < 2 || n%2 != 0 {
			t.Errorf("gather at degree 2 rolled up %d workers: %s", n, strings.TrimSpace(line))
		}
	}
	if gathers == 0 {
		t.Fatalf("Q5 at degree 2 planned no gather:\n%s", res.Plan)
	}
}

func TestObservabilityDoesNotChangeSimulatedCost(t *testing.T) {
	db := openTPCD(t, 0.002, 0)
	q := Q("Q5")
	run := func(analyze bool, opts ExecOptions) *Result {
		db.DropCaches()
		var res *Result
		var err error
		if analyze {
			res, err = db.ExplainAnalyze(q.SQL, opts)
		} else {
			res, err = db.Exec(q.SQL, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false, ExecOptions{})
	traced := run(true, ExecOptions{Trace: true})
	if plain.Cost != traced.Cost {
		t.Errorf("instrumentation changed the simulated cost: %.3f plain vs %.3f traced",
			plain.Cost, traced.Cost)
	}
	if plain.Plan != "" || len(plain.Trace) != 0 {
		t.Error("default run carried observability output despite being off")
	}
	if traced.Plan == "" {
		t.Error("EXPLAIN ANALYZE run returned no annotated plan")
	}
	if len(traced.Trace) == 0 {
		t.Error("traced run returned no events")
	}
}

func benchmarkQuery(b *testing.B, analyze, trace bool) {
	db := Open(Options{BufferPoolPages: 2048})
	if err := db.LoadTPCD(TPCDConfig{SF: 0.002, Seed: 11}); err != nil {
		b.Fatal(err)
	}
	q := Q("Q3")
	opts := ExecOptions{Trace: trace}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.DropCaches()
		var err error
		if analyze {
			_, err = db.ExplainAnalyze(q.SQL, opts)
		} else {
			_, err = db.Exec(q.SQL, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryObservabilityDisabled is the default execution path —
// no trace, no analyze. Compare its ns/op against
// BenchmarkQueryObservabilityEnabled: the gap is the full cost of
// turning everything on, and the disabled path's own overhead (nil
// checks) is far below the 2% the design budget allows.
func BenchmarkQueryObservabilityDisabled(b *testing.B) { benchmarkQuery(b, false, false) }

// BenchmarkQueryObservabilityEnabled runs the same query with the
// lifecycle trace and EXPLAIN ANALYZE shims attached.
func BenchmarkQueryObservabilityEnabled(b *testing.B) { benchmarkQuery(b, true, true) }
