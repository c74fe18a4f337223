package main

// The metric and workload names in this file are normative: later issues
// refer to them, and BENCHMARK.json at the repository root lists the
// same names (metrics_test.go checks that it does).

// e2eDecl declares one end-to-end metric: what a user of the server
// would see. Bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression. Everything
// a clock produces carries 0.25: on the shared reference box 24-second
// windows of unchanged code read 7–13 % apart (quartile to quartile) in a
// calm half hour and up to 26 % in a noisy one, and a bound the
// benchmark's own repeats cannot keep is no bound. The counts repeat
// within 2.3 % and carry 0.05; they are the tie-breaker.
type e2eDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

func endToEndMetrics() []e2eDecl {
	return []e2eDecl{
		{"setup_s", "s", "lower", 0.25},
		{"throughput_qps", "ops/s", "higher", 0.25},
		{"latency_p50_geo_ms", "ms", "lower", 0.25},
		{"latency_p95_ms", "ms", "lower", 0.25},
		// Any rise fails; a relative bound cannot say that about a
		// metric whose healthy value is 0, so BENCHMARK.json leaves it
		// to the result line's attempted/failed.
		{"failed_frac", "fraction", "lower", 0},
		{"cpu_ms_per_op", "ms", "lower", 0.25},
		{"allocs_per_op", "count", "lower", 0.05},
		{"alloc_kb_per_op", "KiB", "lower", 0.05},
		{"sim_cost_per_op", "cost", "lower", 0.05},
	}
}

// layerDecl declares one per-layer metric: the layer (a package of this
// repository) and the end-to-end metric it should move, on which
// workload.
type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	Moves  string `json:"moves"`
}

// allClasses lists every op class of every workload, in workload order;
// server.class_p50_ms.<class> exists once per class and reads 0 on the
// workloads that do not issue the class.
func allClasses() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range workloads() {
		for _, c := range w.Classes {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func layerMetrics() []layerDecl {
	const (
		geo   = "latency_p50_geo_ms"
		p95   = "latency_p95_ms"
		qps   = "throughput_qps"
		cpu   = "cpu_ms_per_op"
		alloc = "allocs_per_op"
	)
	out := []layerDecl{
		{"server.self_us", "us", "lower", "server", geo + ", " + qps + " @ short_lookup"},
		{"server.resp_bytes_per_op", "B", "lower", "server", geo + " @ short_lookup"},
	}
	for _, c := range allClasses() {
		out = append(out, layerDecl{"server.class_p50_ms." + c, "ms", "lower", "server", "the per-class view behind " + geo})
	}
	return append(out, []layerDecl{
		{"session.self_us", "us", "lower", "session", geo + " @ short_lookup"},
		{"sql.parse_us", "us", "lower", "sql", geo + " @ short_lookup"},
		{"optimizer.optimize_us", "us", "lower", "optimizer", p95 + " @ short_lookup (join4.cold is its tail); read classes @ mixed_rw"},
		{"optimizer.plans_considered", "count", "lower", "optimizer", p95 + " @ short_lookup"},
		{"plancache.get_us", "us", "lower", "plancache", "warm classes @ short_lookup"},
		{"plancache.hit_frac", "fraction", "higher", "plancache", "≈1 on tpcd_*, low on mixed_rw"},
		{"plancache.invalidations_per_op", "count", "lower", "plancache", "read classes @ mixed_rw"},
		{"scia.insert_us", "us", "lower", "scia", geo + " @ short_lookup; noise on tpcd_*"},
		{"scia.collectors_per_op", "count", "lower", "scia", geo + " @ tpcd_serial"},
		{"memmgr.admit_release_us", "us", "lower", "memmgr", qps + " @ short_lookup"},
		{"memmgr.allocate_us", "us", "lower", "memmgr", qps + " @ short_lookup"},
		{"memmgr.wait_ms_per_op", "ms", "lower", "memmgr", "must be 0 on all four (16 MiB pool, at most 2 queries)"},
		{"reopt.full_over_off_wall", "ratio", "lower", "reopt", geo + ", sim_cost_per_op @ tpcd_serial"},
		{"reopt.overhead_frac", "fraction", "lower", "reopt", geo + " @ tpcd_serial"},
		{"reopt.switches_per_op", "count", "lower", "reopt", "sim_cost_per_op @ tpcd_serial"},
		{"reopt.reallocs_per_op", "count", "lower", "reopt", "sim_cost_per_op @ tpcd_serial"},
		{"exec.scan_self_frac", "fraction", "lower", "exec", geo + ", " + cpu + " @ tpcd_*; nothing @ short_lookup"},
		{"exec.filter_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.hashjoin_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.indexjoin_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.agg_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.sort_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.project_self_frac", "fraction", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.hashjoin_build_ns_per_tuple", "ns", "lower", "exec", geo + ", " + cpu + " @ tpcd_*"},
		{"exec.hashjoin_probe_ns_per_tuple", "ns", "lower", "exec", geo + ", " + cpu + " @ tpcd_*"},
		{"exec.agg_ns_per_tuple", "ns", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.sort_ns_per_tuple", "ns", "lower", "exec", geo + " @ tpcd_*"},
		{"exec.collector_ns_per_tuple", "ns", "lower", "exec", "reopt.overhead_frac, " + geo + " @ tpcd_serial"},
		{"exec.spill_bytes_per_op", "B", "lower", "exec", "storage.page_writes_per_op, " + geo + " @ tpcd_*"},
		{"storage.scan_ns_per_tuple", "ns", "lower", "storage", geo + ", " + alloc + " @ tpcd_serial"},
		{"storage.pin_unpin_ns", "ns", "lower", "storage", geo + " @ tpcd_serial"},
		{"storage.page_reads_per_op", "count", "lower", "storage", "sim_cost_per_op @ tpcd_*"},
		{"storage.page_writes_per_op", "count", "lower", "storage", "sim_cost_per_op @ tpcd_*"},
		{"storage.insert_ns_per_tuple", "ns", "lower", "storage", qps + " @ mixed_rw"},
		{"storage.vacuum_ms_total", "ms", "lower", "storage", qps + " @ mixed_rw"},
		{"storage.vacuum_ms_max", "ms", "lower", "storage", p95 + " @ mixed_rw"},
		{"storage.cost_ns_per_unit", "ns", "lower", "storage", "ties sim_cost_per_op to " + geo + " @ tpcd_serial"},
		{"storage.cost_ns_per_unit_spread", "ratio", "lower", "storage", "1.0 = CostWeights proportional to reality"},
		{"types.decode_ns_per_tuple", "ns", "lower", "types", cpu + " @ tpcd_serial"},
		{"types.decode_allocs_per_tuple", "count", "lower", "types", alloc + ", alloc_kb_per_op @ tpcd_serial"},
		{"types.encode_ns_per_tuple", "ns", "lower", "types", cpu + " @ tpcd_serial (spills)"},
		{"exchange.speedup_d2", "ratio", "higher", "exchange", geo + ", " + qps + " @ tpcd_parallel only"},
		{"exchange.gather_ns_per_tuple", "ns", "lower", "exchange", geo + " @ tpcd_parallel only"},
		{"exchange.workers_per_op", "count", "lower", "exchange", cpu + " @ tpcd_parallel only"},
		{"catalog.commit_us", "us", "lower", "catalog", qps + " @ mixed_rw"},
		{"catalog.stats_version_bumps_per_txn", "count", "lower", "catalog", "must be exactly 1 @ mixed_rw"},
		{"obs.progress_overhead_frac", "fraction", "lower", "obs", geo + " @ tpcd_serial"},
		{"runtime.gc_cycles_per_op", "count", "lower", "runtime", cpu + " @ tpcd_serial; " + qps + " @ 2-client workloads"},
		{"runtime.gc_pause_ms_per_op", "ms", "lower", "runtime", p95 + " @ 2-client workloads"},
		{"runtime.gc_cpu_frac", "fraction", "lower", "runtime", cpu + " @ tpcd_serial"},
		{"runtime.heap_inuse_peak_mb", "MiB", "lower", "runtime", "runtime.gc_cycles_per_op"},
		{"trace.overhead_frac", "fraction", "lower", "benchmark", "—"},
		{"trace.frontend_share", "fraction", "lower", "benchmark", "share of a traced request (plan run in ModeOff) outside plan execution: majority @ short_lookup"},
		{"trace.exec_share", "fraction", "lower", "benchmark", "share of a traced request (plan run in ModeOff) inside exec+storage+types: majority @ tpcd_serial"},
	}...)
}
