package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lat := e2eDecl{"latency_p50_geo_ms", "ms", "lower", 0.10}
	qps := e2eDecl{"throughput_qps", "ops/s", "higher", 0.10}
	failed := e2eDecl{"failed_frac", "fraction", "lower", 0}
	for _, tc := range []struct {
		name string
		d    e2eDecl
		a, b []float64
		want string
	}{
		{"within bound", lat, []float64{100, 101, 99}, []float64{104, 105, 103}, "same"},
		{"slower than bound", lat, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{"faster than bound", lat, []float64{100, 101, 99}, []float64{80, 81, 79}, "better"},
		{"higher is better", qps, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{"higher is better, gain", qps, []float64{100, 101, 99}, []float64{120, 121, 119}, "better"},
		{"spread hides the difference", lat, []float64{90, 100, 115}, []float64{108, 112, 125}, "unresolved"},
		{"spread wide but every run separated", lat, []float64{90, 100, 115}, []float64{150, 160, 180}, "worse"},
		{"single runs", lat, []float64{100}, []float64{105}, "same"},
		{"any failure is worse", failed, []float64{0, 0}, []float64{0, 0.001}, "worse"},
		{"no failures", failed, []float64{0, 0}, []float64{0, 0}, "same"},
	} {
		if got := verdictOf(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// resultWith builds a one-set, one-workload file whose sim_cost_per_op
// (bound 0.05) and failed_frac are as given and every other metric 100.
func resultWith(cost, failed float64) resultFile {
	w := workloadResult{Name: "tpcd_serial", EndToEnd: map[string]metric{}}
	for _, d := range endToEndMetrics() {
		w.EndToEnd[d.Name] = metric{100, d.Unit}
	}
	w.EndToEnd["sim_cost_per_op"] = metric{cost, "cost"}
	w.EndToEnd["failed_frac"] = metric{failed, "fraction"}
	return resultFile{Sets: [][]workloadResult{{w}}}
}

func TestAgreementBetweenSets(t *testing.T) {
	a, b := resultWith(100, 0), resultWith(103, 0)
	if err := agreement([][]workloadResult{a.Sets[0], b.Sets[0]}); err != nil {
		t.Errorf("sets 3%% apart on a 5%% bound: %v", err)
	}
	c := resultWith(115, 0)
	if err := agreement([][]workloadResult{a.Sets[0], c.Sets[0]}); err == nil {
		t.Error("sets 15% apart on a 5% bound agree")
	}
	if err := agreement([][]workloadResult{a.Sets[0]}); err != nil {
		t.Errorf("a single set disagrees with itself: %v", err)
	}
}

func TestCompareFilesExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", resultWith(100, 0))
	if err := compareFiles(base, write("same.json", resultWith(103, 0))); err != nil {
		t.Errorf("3%% dearer on a 5%% bound: %v", err)
	}
	if err := compareFiles(base, write("slow.json", resultWith(130, 0))); err == nil {
		t.Error("30% dearer passes")
	}
	if err := compareFiles(base, write("failing.json", resultWith(100, 0.01))); err == nil {
		t.Error("a higher failed_frac passes")
	}
	if err := compareFiles(base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("a missing file passes")
	}
}
