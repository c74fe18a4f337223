package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

func TestDeclaredNamesAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is malformed", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads() {
		check("workload", w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEndMetrics() {
		check("end-to-end", d.Name, d.Unit)
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", d.Name, d.Bound)
		}
	}
	layers := layerMetrics()
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(layers))
	}
	for _, d := range layers {
		check("per-layer", d.Name, d.Unit)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must declare exactly what this package reports:
// every workload, every end-to-end metric but failed_frac (always 0 on
// a healthy run, which the file's relative bounds cannot express), and
// every per-layer metric, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no ../BENCHMARK.json beside this checkout")
	}
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	wls := workloads()
	if len(f.Workloads) != len(wls) {
		t.Fatalf("%d workloads in the file, %d declared", len(f.Workloads), len(wls))
	}
	for i, w := range wls {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, package has %q", i, f.Workloads[i].Name, w.Name)
		}
	}

	var e2e []e2eDecl
	for _, d := range endToEndMetrics() {
		if d.Name != "failed_frac" {
			e2e = append(e2e, d)
		}
	}
	if len(f.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in the file, %d declared", len(f.EndToEnd), len(e2e))
	}
	for i, d := range e2e {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, package has %+v", i, g, d)
		}
	}

	layers := layerMetrics()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in the file, %d declared", len(f.PerLayer), len(layers))
	}
	for i, d := range layers {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, package has %+v", i, g, d)
		}
	}
}
