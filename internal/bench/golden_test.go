package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.json from the current code")

// goldenPath holds every deterministic simulated-cost figure under
// Default(), one JSON row per measured row.
const goldenPath = "testdata/figures.json"

// goldenFigures runs the figures mqr-bench prints in simulated cost units
// (the timed ones, parallel included, are not deterministic), keyed by
// figure name.
func goldenFigures(cfg Config) (map[string]any, error) {
	out := map[string]any{}
	var err error
	if out["figure10"], err = Figure10(cfg); err != nil {
		return nil, err
	}
	if out["figure11"], err = Figure11(cfg); err != nil {
		return nil, err
	}
	for _, z := range []float64{0.3, 0.6} {
		if out[fmt.Sprintf("figure12_z%.1f", z)], err = Figure12(cfg, z); err != nil {
			return nil, err
		}
	}
	if out["mu_guarantee"], err = MuGuarantee(cfg, []float64{0.01, 0.05, 0.2}); err != nil {
		return nil, err
	}
	if out["sensitivity"], err = Sensitivity(cfg, []float64{0.05, 0.2, 0.5, 1.0}); err != nil {
		return nil, err
	}
	if out["ablations"], err = Ablations(cfg); err != nil {
		return nil, err
	}
	if out["hist_families"], err = HistFamilies(cfg); err != nil {
		return nil, err
	}
	if out["hybrid"], err = Hybrid(cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// TestFiguresMatchGolden: every simulated cost, switch count and
// re-allocation count of the paper's figures equals the committed
// golden file. A change that moves a figure must regenerate the file
// and show the moved rows in its diff.
func TestFiguresMatchGolden(t *testing.T) {
	figs, err := goldenFigures(Default())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if diff := rowDiff(t, want, data); diff != "" {
		t.Errorf("figures differ from %s (- golden, + now):\n%s\nregenerate with: go test ./internal/bench -run TestFiguresMatchGolden -update",
			goldenPath, diff)
	}
}

// rowDiff compares two figure files row by row and lists the rows that
// differ, are missing, or are new.
func rowDiff(t *testing.T, want, got []byte) string {
	t.Helper()
	decode := func(data []byte) map[string][]string {
		var figs map[string][]json.RawMessage
		if err := json.Unmarshal(data, &figs); err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for name, rows := range figs {
			for _, r := range rows {
				var b bytes.Buffer
				if err := json.Compact(&b, r); err != nil {
					t.Fatal(err)
				}
				out[name] = append(out[name], b.String())
			}
		}
		return out
	}
	w, g := decode(want), decode(got)
	names := map[string]bool{}
	for n := range w {
		names[n] = true
	}
	for n := range g {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var b bytes.Buffer
	for _, n := range sorted {
		for i := 0; i < max(len(w[n]), len(g[n])); i++ {
			var wr, gr string
			if i < len(w[n]) {
				wr = w[n][i]
			}
			if i < len(g[n]) {
				gr = g[n][i]
			}
			if wr == gr {
				continue
			}
			if wr != "" {
				fmt.Fprintf(&b, "- %s[%d] %s\n", n, i, wr)
			}
			if gr != "" {
				fmt.Fprintf(&b, "+ %s[%d] %s\n", n, i, gr)
			}
		}
	}
	return b.String()
}
