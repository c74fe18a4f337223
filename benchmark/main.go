// Command benchmark is the repository's wall-clock benchmark: it starts
// the real stack in-process (TPC-D load → session.Manager → HTTP server
// on loopback → server.Dial clients), drives four closed-loop workloads
// with tracing off for the end-to-end metrics, makes one traced pass for
// the per-layer metrics, and checks every answer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run only this workload and print one JSON result line (the BENCHMARK.json contract); empty runs the full interleaved set")
		seed     = fs.Int64("seed", 1, "seeds every client's op stream: the order of the queries and the host-variable values")
		seconds  = fs.Int("seconds", 30, "measured seconds per workload (the full set splits them into 3 interleaved rounds)")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		repeat   = fs.Int("repeat", 1, "run this many full sets and fail if any end-to-end metric disagrees between sets by more than its bound")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		out      = fs.String("out", filepath.Join(".bench_out", "result.json"), "where the full set writes its JSON result")
		traceOut = fs.String("trace-out", filepath.Join(".bench_out", "trace.json"), "where the full set writes its spans (Chrome trace-event JSON)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	// One client per core at most, and the 2-client workloads need two.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs, have %d", runtime.NumCPU())
	}
	if *seconds < 1 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	cfg := runConfig{seed: *seed, warmup: warmupSet, minSamples: minSamples, setupRepeats: setupRepeats}
	window := time.Duration(*seconds) * time.Second

	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg.warmup = warmupOne
		return runOne(wl, cfg, window, *trace != 0)
	}
	return runSets(cfg, window, *repeat, *out, *traceOut)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne is the BENCHMARK.json entry point: one workload, one window,
// one JSON line. With traced set the line carries the per-layer metrics
// of a traced pass instead of the end-to-end ones.
func runOne(wl *workload, cfg runConfig, window time.Duration, traced bool) error {
	r, err := newRun(wl, cfg)
	if err != nil {
		return err
	}
	defer r.close()
	r.warm()
	r.drive(window, true, cfg.minSamples)
	if err := r.guard(); err != nil {
		return err
	}
	line := resultLine{Attempted: r.total.attempted, Failed: r.total.failed}
	if traced {
		layers, _, err := r.tracedPass()
		if err != nil {
			return err
		}
		line.Metrics = layers
	} else {
		line.Metrics = r.endToEnd()
		// failed_frac is 0 on every healthy run, which a relative bound
		// cannot express; the line's attempted/failed carry it instead.
		delete(line.Metrics, "failed_frac")
	}
	if err := r.finish(); err != nil {
		return err
	}
	line.Correct = true
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops in %.1fs\n%s%s", wl.Name, cfg.seed,
		r.total.correct(), r.win.wall.Seconds(), formatClasses(r.classSummaries(), "  "), formatMetrics(line.Metrics, "  "))
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
