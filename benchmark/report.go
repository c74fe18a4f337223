package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// environment records where and how a result was taken.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOGC         string  `json:"gogc"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	DataSeed     int64   `json:"data_seed"`
	ScaleFactor  float64 `json:"scale_factor"`
	PoolPages    int     `json:"pool_pages"`
	MemBudget    float64 `json:"mem_budget_bytes"`
	MemPoolBytes float64 `json:"mem_pool_bytes"`
	PlanCache    int     `json:"plan_cache_size"`
	StaleFrac    float64 `json:"stale_frac"`
	WarmupS      float64 `json:"warmup_s"`
	WindowS      float64 `json:"window_s"`
	Rounds       int     `json:"rounds"`
}

func describeEnvironment(cfg runConfig, window time.Duration) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	// go run stamps no VCS information into the binary, so ask git; a
	// checkout that is not a repository has no commit to record.
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	d := bench.Default()
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), Commit: commit, Seed: cfg.seed, DataSeed: dataSeed,
		ScaleFactor: d.SF, PoolPages: d.PoolPages, MemBudget: d.MemBudget,
		MemPoolBytes: memPoolBytes, PlanCache: planCacheSize, StaleFrac: d.StaleFrac,
		WarmupS: cfg.warmup.Seconds(), WindowS: window.Seconds(), Rounds: setRounds,
	}
}

// workloadResult is one workload's numbers in one set.
type workloadResult struct {
	Name     string            `json:"name"`
	Why      string            `json:"why"`
	Clients  int               `json:"clients"`
	Samples  int               `json:"samples"`
	WindowS  float64           `json:"window_s"`
	Classes  []classSummary    `json:"classes"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
}

// resultFile is what the full set writes: one entry in Sets per -repeat.
type resultFile struct {
	Env   environment `json:"env"`
	Claim *string     `json:"claim"` // this benchmark claims no gain
	// EndToEnd and PerLayer declare the metrics: bounds, and for each
	// layer metric its layer and the end-to-end metric it should move
	// (BENCHMARK.json has no place for the last two).
	EndToEnd []e2eDecl          `json:"end_to_end"`
	PerLayer []layerDecl        `json:"per_layer"`
	Sets     [][]workloadResult `json:"sets"`
}

// runSets runs `repeat` full sets, prints them, writes the result and
// span files, and checks that the sets agree.
func runSets(cfg runConfig, window time.Duration, repeat int, out, traceOut string) error {
	file := resultFile{Env: describeEnvironment(cfg, window), EndToEnd: endToEndMetrics(), PerLayer: layerMetrics()}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d GOGC=%s %s commit=%s seed=%d data-seed=%d\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.GOGC, file.Env.GoVersion, file.Env.Commit, cfg.seed, dataSeed)
	fmt.Printf("engine: SF %.2f, pool %d pages, operator memory %.0f B, broker pool %.0f B, plan cache %d, stale fraction %.1f\n",
		file.Env.ScaleFactor, file.Env.PoolPages, file.Env.MemBudget, file.Env.MemPoolBytes, file.Env.PlanCache, file.Env.StaleFrac)
	spans := map[string][]span{}
	var order []string
	for s := 0; s < repeat; s++ {
		set, setSpans, err := runSet(cfg, window, setRounds)
		if err != nil {
			return err
		}
		file.Sets = append(file.Sets, set)
		fmt.Printf("\n== set %d of %d ==\n", s+1, repeat)
		for _, w := range set {
			printWorkload(w)
			if s == 0 {
				order = append(order, w.Name)
				spans[w.Name] = setSpans[w.Name]
			}
		}
	}
	for _, p := range []string{out, traceOut} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := writeChrome(traceOut, spans, order); err != nil {
		return err
	}
	fmt.Printf("\nresult: %s\nspans:  %s (Chrome trace-event JSON; open in ui.perfetto.dev)\n", out, traceOut)
	return agreement(file.Sets)
}

// runSet measures the four workloads once: each on a fresh engine,
// warmed up, then `rounds` measured rounds interleaved across the
// workloads (s, p, l, m, s, p, l, m, …) so that drift on a shared
// machine lands on all of them alike, then one traced pass each.
func runSet(cfg runConfig, window time.Duration, rounds int) ([]workloadResult, map[string][]span, error) {
	var runs []*wlRun
	defer func() {
		for _, r := range runs {
			r.close()
		}
	}()
	for _, wl := range workloads() {
		r, err := newRun(wl, cfg)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
		r.warm()
	}
	for round := 1; round <= rounds; round++ {
		for _, r := range runs {
			want := 0
			if round == rounds {
				want = cfg.minSamples
			}
			r.drive(window/time.Duration(rounds), true, want)
		}
	}
	var set []workloadResult
	spans := map[string][]span{}
	for _, r := range runs {
		if err := r.guard(); err != nil {
			return nil, nil, err
		}
		layers, sp, err := r.tracedPass()
		if err != nil {
			return nil, nil, err
		}
		if err := r.finish(); err != nil {
			return nil, nil, err
		}
		spans[r.wl.Name] = sp
		set = append(set, workloadResult{
			Name: r.wl.Name, Why: r.wl.Why, Clients: r.wl.Clients,
			Samples: r.total.correct(), WindowS: r.win.wall.Seconds(),
			Classes: r.classSummaries(), EndToEnd: r.endToEnd(), PerLayer: layers,
		})
	}
	return set, spans, nil
}

func printWorkload(w workloadResult) {
	fmt.Printf("\n%s — %d client(s), %d samples in %.1fs\n  %s\n", w.Name, w.Clients, w.Samples, w.WindowS, w.Why)
	fmt.Print(formatClasses(w.Classes, "  "))
	fmt.Println("  end to end (tracing off):")
	fmt.Print(formatMetrics(w.EndToEnd, "    "))
	fmt.Println("  per layer (traced pass and stats snapshots):")
	fmt.Print(formatMetrics(w.PerLayer, "    "))
}

// worse returns by what share of base the value v is worse than base,
// negative when it is better.
func worse(d e2eDecl, base, v float64) float64 {
	if base == 0 {
		if v == 0 {
			return 0
		}
		if d.Better == "lower" {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	if d.Better == "lower" {
		return (v - base) / base
	}
	return (base - v) / base
}

// agreement is the self-agreement check: between any two sets of the
// same code, no end-to-end metric of any workload may differ by more
// than its bound.
func agreement(sets [][]workloadResult) error {
	var errs []error
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			for k, a := range sets[i] {
				b := sets[j][k]
				for _, d := range endToEndMetrics() {
					x, y := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
					if gap := math.Abs(worse(d, x, y)); gap > d.Bound {
						errs = append(errs, fmt.Errorf("%s %s: set %d reads %.4g, set %d reads %.4g (%.1f%% apart, bound %.0f%%)",
							a.Name, d.Name, i+1, x, j+1, y, gap*100, d.Bound*100))
					}
				}
			}
		}
	}
	if len(sets) > 1 && len(errs) == 0 {
		fmt.Printf("\n%d sets agree on every end-to-end metric within its bound\n", len(sets))
	}
	return errors.Join(errs...)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &f, nil
}

// values collects one metric of one workload across a file's sets.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		for _, w := range set {
			if m, ok := w.EndToEnd[name]; ok && w.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return ratio(s[len(s)-1]-s[0], median(s))
}

// compareFiles prints one row per workload × end-to-end metric: the
// parent's median, the change's, the ratio with its base, the bound and
// a verdict. It fails on any `worse` row and on a higher failed_frac.
func compareFiles(oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("parent: %s (%d set(s))   change: %s (%d set(s))\n", oldPath, len(old.Sets), newPath, len(cur.Sets))
	fmt.Printf("%-14s %-20s %12s %12s %9s  %-22s %6s  %s\n", "workload", "metric", "parent", "change", "change%", "ratio (base)", "bound", "verdict")
	var bad []string
	for _, w := range old.Sets[0] {
		for _, d := range endToEndMetrics() {
			a, b := old.values(w.Name, d.Name), cur.values(w.Name, d.Name)
			if len(b) == 0 {
				bad = append(bad, w.Name+" "+d.Name+" missing")
				continue
			}
			base, v := median(a), median(b)
			verdict := verdictOf(d, a, b)
			if verdict == "worse" {
				bad = append(bad, w.Name+" "+d.Name)
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %+8.1f%%  %-22s %5.0f%%  %s\n",
				w.Name, d.Name, base, v, 100*ratio(v-base, base),
				fmt.Sprintf("%.3f (÷ %.4g %s)", ratio(v, base), base, d.Unit), d.Bound*100, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressions: %s", strings.Join(bad, "; "))
	}
	return nil
}

// verdictOf judges the change's runs b against the parent's runs a.
// failed_frac has no tolerance: any rise is worse.
func verdictOf(d e2eDecl, a, b []float64) string {
	base, v := median(a), median(b)
	w := worse(d, base, v)
	if d.Bound == 0 {
		switch {
		case w > 0:
			return "worse"
		case w < 0:
			return "better"
		}
		return "same"
	}
	// Where the run-to-run spread of either side exceeds the bound the
	// medians cannot resolve a difference of that size, unless every run
	// of one side beats every run of the other.
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if !separated(a, b) {
			return "unresolved"
		}
	}
	switch {
	case w > d.Bound:
		return "worse"
	case w < -d.Bound:
		return "better"
	}
	return "same"
}

// separated reports whether every run of one side is better than every
// run of the other.
func separated(a, b []float64) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
