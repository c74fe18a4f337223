// Command mqr-bench regenerates the paper's evaluation figures from the
// command line (the same harness backs the go-test benchmarks) and runs
// the timed figures CI gates on.
//
// Usage:
//
//	mqr-bench -fig 10        # Figure 10: Normal vs Re-Optimized
//	mqr-bench -fig 11        # Figure 11: memory-only vs plan-only
//	mqr-bench -fig 12        # Figure 12: skew z=0.3 and z=0.6
//	mqr-bench -fig mu        # μ-overhead guarantee
//	mqr-bench -fig sens      # θ₂ sensitivity sweep
//	mqr-bench -fig abl       # design-choice ablations
//	mqr-bench -fig hist      # catalog histogram families
//	mqr-bench -fig hybrid    # parametric/dynamic hybrid (paper §4)
//	mqr-bench -fig parallel  # degrees 1..N: row counts, cost, measured speedup
//	mqr-bench -fig mixed     # concurrent MVCC writers beside the read sweep
//	mqr-bench -fig overhead  # live-progress monitoring overhead in CPU time
//	mqr-bench -fig qos       # multi-tenant fairness and preemption
//	mqr-bench -fig all       # everything
//
// mqr-bench -h lists the flags. A gate flag (-speedup-gate,
// -progress-gate, -qos-jain-gate, -qos-ratio-tol) makes the process exit
// non-zero when its figure misses it; README.md says what each checks.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which figure to regenerate: 10|11|12|mu|sens|abl|hist|hybrid|parallel|mixed|overhead|qos|all")
		sf      = flag.Float64("sf", 0.01, "TPC-D scale factor")
		pool    = flag.Int("pool", 256, "buffer pool pages")
		mem     = flag.Float64("mem", 2<<20, "per-query memory budget in bytes")
		stale   = flag.Float64("stale", 0.5, "fraction of data loaded when ANALYZE ran")
		seed    = flag.Int64("seed", 0, "data generator seed")
		par     = flag.Int("parallel", 4, "top degree for the parallel sweep (degrees 1,2,..,N by doubling)")
		writers = flag.Int("writers", 4, "concurrent writer sessions for the mixed workload")
		wtxns   = flag.Int("write-txns", 30, "transactions each mixed-workload writer commits")
		reps    = flag.Int("reps", 3, "measured on/off pairs per query for the overhead figure")
		ovGate  = flag.Float64("progress-gate", 0, "exit non-zero if the overhead geomean CPU-time ratio exceeds this (0 = no gate)")
		spGate  = flag.Float64("speedup-gate", 0, "exit non-zero if the parallel figure's degree-2 geomean measured speedup is below this (0 = no gate)")
		qosWrk  = flag.Int("qos-workers", 64, "closed-loop sessions per tenant for the qos figure")
		qosWarm = flag.Duration("qos-warmup", 500*time.Millisecond, "unmeasured warmup per qos phase")
		qosDur  = flag.Duration("qos-duration", 3*time.Second, "measured window per qos phase")
		qosJain = flag.Float64("qos-jain-gate", 0, "exit non-zero if the equal-weights Jain index is below this (0 = no gate)")
		qosTol  = flag.Float64("qos-ratio-tol", 0, "exit non-zero if the weighted throughput ratio is outside (1±tol)x the configured 3:1 (0 = no gate)")
	)
	flag.Parse()

	cfg := bench.Default()
	cfg.SF = *sf
	cfg.PoolPages = *pool
	cfg.MemBudget = *mem
	cfg.StaleFrac = *stale
	cfg.Seed = *seed

	run := func(name string) {
		switch name {
		case "10":
			rows, err := bench.Figure10(cfg)
			check(err)
			fmt.Println(bench.FormatRows("Figure 10: Normal vs Re-Optimized", rows))
		case "11":
			rows, err := bench.Figure11(cfg)
			check(err)
			fmt.Println(bench.FormatRows("Figure 11: memory-only vs plan-only", rows))
		case "12":
			for _, z := range []float64{0.3, 0.6} {
				rows, err := bench.Figure12(cfg, z)
				check(err)
				fmt.Println(bench.FormatRows(fmt.Sprintf("Figure 12: Zipf z=%.1f", z), rows))
			}
		case "mu":
			rows, err := bench.MuGuarantee(cfg, []float64{0.01, 0.05, 0.2})
			check(err)
			fmt.Println("Mu guarantee (overhead on non-benefiting queries):")
			for _, r := range rows {
				fmt.Printf("  mu=%.2f %-4s overhead=%+.2f%%\n", r.Mu, r.Query, r.Overhead*100)
			}
			fmt.Println()
		case "sens":
			rows, err := bench.Sensitivity(cfg, []float64{0.05, 0.2, 0.5, 1.0})
			check(err)
			fmt.Println("Theta2 sensitivity, plan-only mode (medium and complex queries):")
			for _, r := range rows {
				fmt.Printf("  theta2=%.2f %-4s full=%8.0f (normal %8.0f) switches=%d\n",
					r.Theta2, r.Query, r.Full, r.Off, r.Switches)
			}
			fmt.Println()
		case "abl":
			rows, err := bench.Ablations(cfg)
			check(err)
			fmt.Println("Ablations (complex queries):")
			for _, r := range rows {
				fmt.Printf("  %-4s %-12s %8.0f\n", r.Query, r.Variant, r.Cost)
			}
			fmt.Println()
		case "hybrid":
			rows, err := bench.Hybrid(cfg)
			check(err)
			fmt.Println("Parametric/dynamic hybrid (host-variable Q3 variant, selective bindings):")
			for _, r := range rows {
				fmt.Printf("  %-12s %8.0f (switches=%d)\n", r.Variant, r.Cost, r.Switches)
			}
			fmt.Println()
		case "parallel":
			if *spGate > 0 && runtime.NumCPU() < 2 {
				fmt.Fprintf(os.Stderr, "mqr-bench: speedup gate: %d CPU cannot measure a degree-2 speedup\n", runtime.NumCPU())
				os.Exit(1)
			}
			if *spGate > 0 && *par < 2 {
				fmt.Fprintf(os.Stderr, "mqr-bench: speedup gate: -parallel %d runs no degree 2\n", *par)
				os.Exit(2)
			}
			rows, err := bench.Parallel(cfg, *par)
			check(err)
			fmt.Println(bench.FormatParallel(
				fmt.Sprintf("Intra-query parallelism (degrees 1..%d, full re-optimization):", *par), rows))
			s := bench.SummarizeParallel(rows)
			for d := 2; d <= *par; d *= 2 {
				key := fmt.Sprintf("d%d", d)
				fmt.Printf("degree %d geomean measured speedup: %.2fx\n", d, s.MeasuredSpeedup[key])
			}
			if *spGate > 0 {
				d2, ok := s.MeasuredSpeedup["d2"]
				if !ok {
					fmt.Fprintln(os.Stderr, "mqr-bench: speedup gate failed: no valid degree-2 measurements")
					os.Exit(1)
				}
				if d2 < *spGate {
					fmt.Fprintf(os.Stderr, "mqr-bench: speedup gate failed: degree-2 geomean measured speedup %.2fx < %.2fx\n", d2, *spGate)
					os.Exit(1)
				}
				fmt.Printf("speedup gate passed: degree-2 geomean measured speedup %.2fx >= %.2fx\n", d2, *spGate)
			}
			fmt.Println()
		case "mixed":
			res, err := bench.Mixed(cfg, *writers, *wtxns)
			check(err)
			fmt.Println(bench.FormatMixed(res))
		case "overhead":
			rows, err := bench.ProgressOverhead(cfg, *reps)
			check(err)
			fmt.Println(bench.FormatOverhead(
				"Live-progress monitoring overhead (process CPU time, median of reps):", rows))
			s := bench.SummarizeOverhead(rows)
			if *ovGate > 0 {
				if s.Skipped {
					fmt.Fprintln(os.Stderr,
						"mqr-bench: progress gate failed: no valid overhead measurements")
					os.Exit(1)
				}
				if s.GeomeanRatio > *ovGate {
					fmt.Fprintf(os.Stderr,
						"mqr-bench: progress gate failed: geomean CPU-time ratio %.3f > %.3f (max %.3f)\n",
						s.GeomeanRatio, *ovGate, s.MaxRatio)
					os.Exit(1)
				}
				fmt.Printf("progress gate passed: geomean CPU-time ratio %.3f <= %.3f (max %.3f)\n\n",
					s.GeomeanRatio, *ovGate, s.MaxRatio)
			}
		case "qos":
			res, err := bench.QoS(cfg, *qosWrk, *qosWarm, *qosDur)
			check(err)
			fmt.Println(bench.FormatQoS(res))
			s := res.Summary
			if *qosJain > 0 && s.EqualJain < *qosJain {
				fmt.Fprintf(os.Stderr,
					"mqr-bench: qos fairness gate failed: equal-weights Jain %.3f < %.3f\n",
					s.EqualJain, *qosJain)
				os.Exit(1)
			}
			if *qosTol > 0 {
				lo, hi := s.WeightRatio*(1-*qosTol), s.WeightRatio*(1+*qosTol)
				if math.IsInf(s.ThroughputRatio, 0) || s.ThroughputRatio < lo || s.ThroughputRatio > hi {
					fmt.Fprintf(os.Stderr,
						"mqr-bench: qos ratio gate failed: throughput ratio %.2f outside [%.2f, %.2f]\n",
						s.ThroughputRatio, lo, hi)
					os.Exit(1)
				}
			}
			if *qosJain > 0 || *qosTol > 0 {
				fmt.Printf("qos gates passed: jain=%.3f ratio=%.2f (configured %.0f:1)\n\n",
					s.EqualJain, s.ThroughputRatio, s.WeightRatio)
			}
		case "hist":
			rows, err := bench.HistFamilies(cfg)
			check(err)
			fmt.Println("Catalog histogram families (complex queries):")
			for _, r := range rows {
				fmt.Printf("  %-10s %-4s normal=%8.0f full=%8.0f switches=%d\n",
					r.Family, r.Query, r.Off, r.Full, r.Switches)
			}
			fmt.Println()
		default:
			fmt.Fprintf(os.Stderr, "mqr-bench: unknown figure %q\n", name)
			os.Exit(2)
		}
	}

	if *fig == "all" {
		for _, name := range []string{"10", "11", "12", "mu", "sens", "abl", "hist", "hybrid", "parallel", "mixed", "overhead", "qos"} {
			run(name)
		}
	} else {
		run(*fig)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqr-bench:", err)
		os.Exit(1)
	}
}
