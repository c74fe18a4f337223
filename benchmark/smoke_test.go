package main

import (
	"math"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs the whole pipeline small: every workload
// for about a second on its own engine, the traced pass at one op per
// class, answers and residue checked, and every declared metric present
// exactly once per workload with a finite value.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts four engines and runs every workload")
	}
	cfg := runConfig{
		seed: 1, warmup: 2 * time.Second, // a full cycle of the slowest workload, so every plan is cached
		minSamples: 1, setupRepeats: 1, traceOps: 1,
	}
	window := 2 * time.Second
	if raceEnabled {
		cfg.warmup *= 8
		window *= 8
	}
	set, spans, err := runSet(cfg, window, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != len(workloads()) {
		t.Fatalf("%d workload results, want %d", len(set), len(workloads()))
	}
	for _, w := range set {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("result for unknown workload %q", w.Name)
		}
		if len(w.EndToEnd) != len(endToEndMetrics()) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(w.EndToEnd), len(endToEndMetrics()))
		}
		for _, d := range endToEndMetrics() {
			m, ok := w.EndToEnd[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
			if d.Name != "failed_frac" && m.Value <= 0 {
				t.Errorf("%s: %s = %v, must be positive", w.Name, d.Name, m.Value)
			}
		}
		if f := w.EndToEnd["failed_frac"].Value; f != 0 {
			t.Errorf("%s: failed_frac = %v", w.Name, f)
		}
		if len(w.PerLayer) != len(layerMetrics()) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(layerMetrics()))
		}
		for _, d := range layerMetrics() {
			m, ok := w.PerLayer[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
		}
		for _, c := range wl.Classes {
			if w.PerLayer["server.class_p50_ms."+c].Value <= 0 {
				t.Errorf("%s: class %s has no median", w.Name, c)
			}
		}

		// The workloads separate the layers as designed.
		layer := func(name string) float64 { return w.PerLayer[name].Value }
		writes := layer("catalog.commit_us") > 0 && layer("storage.insert_ns_per_tuple") > 0 && layer("storage.vacuum_ms_total") > 0
		if writes != wl.Writes {
			t.Errorf("%s: write-path metrics non-zero = %v, want %v", w.Name, writes, wl.Writes)
		}
		if wl.Writes && layer("catalog.stats_version_bumps_per_txn") != 1 {
			t.Errorf("%s: %v statistics-version bumps per transaction, want exactly 1", w.Name, layer("catalog.stats_version_bumps_per_txn"))
		}
		exchanges := 0
		for _, s := range spans[w.Name] {
			if s.Cat == "exchange" {
				exchanges++
			}
		}
		if parallel := wl.Degree > 1; (exchanges > 0) != parallel || (layer("exchange.speedup_d2") > 0) != parallel {
			t.Errorf("%s: %d exchange spans, speedup_d2 %v, parallel %v", w.Name, exchanges, layer("exchange.speedup_d2"), parallel)
		}
		if layer("memmgr.wait_ms_per_op") != 0 {
			t.Errorf("%s: queries queued for memory", w.Name)
		}
	}
}
