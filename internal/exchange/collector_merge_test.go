package exchange

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// genTuples produces a deterministic skewed stream: col 0 is an int key
// with the given distinct count (zipf-ish via squaring), col 1 a float.
func genTuples(n, distinct int, seed int64) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]types.Tuple, n)
	for i := range out {
		u := rng.Float64()
		k := int64(u * u * float64(distinct)) // skew toward low keys
		out[i] = types.Tuple{
			types.NewInt(k),
			types.NewFloat(float64(k) * 1.5),
		}
	}
	return out
}

func collectorNode() *plan.Collector {
	return &plan.Collector{
		ID: 7,
		Spec: plan.CollectorSpec{
			HistCols:   []int{0},
			UniqueCols: [][]int{{0}},
			Seed:       42,
		},
	}
}

// TestMergedCollectorsMatchSingleStream is the mergeability property the
// whole parallel design rests on (DESIGN.md §11): per-partition states
// merged in worker order must report what a single collector over the
// union would have. Counters, byte totals, and extrema are exact;
// distinct estimates share the FM bitmap construction so they agree
// exactly with the single stream and land within the sketch's
// documented ~13% standard error of the truth (we allow 30%); histograms
// are rebuilt from the merged reservoir, so we check the reservoir
// invariants (seen count exact, sample values drawn from the input).
func TestMergedCollectorsMatchSingleStream(t *testing.T) {
	for _, parts := range []int{2, 4, 8} {
		for _, distinct := range []int{100, 5000} { // exact mode and FM mode
			t.Run(fmt.Sprintf("parts=%d_distinct=%d", parts, distinct), func(t *testing.T) {
				tuples := genTuples(20000, distinct, int64(parts*31+distinct))
				node := collectorNode()

				single := exec.NewCollectorState(node, 0)
				for _, tp := range tuples {
					single.Observe(tp)
				}

				states := make([]*exec.CollectorState, parts)
				for w := range states {
					states[w] = exec.NewCollectorState(node, w)
				}
				for _, tp := range tuples {
					// Hash-partition on the key column, as a join stage routes.
					states[exec.HashKeys(tp, []int{0})%uint64(parts)].Observe(tp)
				}
				merged := states[0]
				for _, s := range states[1:] {
					merged.Merge(s)
				}

				mo, so := merged.Observed(), single.Observed()
				if mo.Rows != so.Rows || mo.Bytes != so.Bytes {
					t.Errorf("rows/bytes: merged %g/%g, single %g/%g", mo.Rows, mo.Bytes, so.Rows, so.Bytes)
				}
				for col, want := range so.Mins {
					if got := mo.Mins[col]; !got.Equal(want) {
						t.Errorf("min[%d] = %v, want %v", col, got, want)
					}
				}
				for col, want := range so.Maxs {
					if got := mo.Maxs[col]; !got.Equal(want) {
						t.Errorf("max[%d] = %v, want %v", col, got, want)
					}
				}

				truth := trueDistinct(tuples)
				for key, want := range so.Uniques {
					got := mo.Uniques[key]
					if got != want {
						t.Errorf("distinct[%s]: merged %g != single %g (same hashes must build the same sketch)", key, got, want)
					}
					if rel := math.Abs(got-truth) / truth; rel > 0.30 {
						t.Errorf("distinct[%s] = %g, truth %g: relative error %.2f exceeds the documented bound", key, got, truth, rel)
					}
				}

				r := mergedReservoir(t, merged, 0)
				if r.Seen() != int64(len(tuples)) {
					t.Errorf("merged reservoir saw %d values, want %d", r.Seen(), len(tuples))
				}
				for _, v := range r.Sample() {
					if v.Int() < 0 || v.Int() >= int64(distinct) {
						t.Errorf("sampled value %v outside the input domain", v)
					}
				}
				if h := mo.Hists[0]; h == nil {
					t.Error("no histogram built from the merged reservoir")
				}
			})
		}
	}
}

// trueDistinct counts col-0 distinct values exactly.
func trueDistinct(tuples []types.Tuple) float64 {
	seen := map[int64]bool{}
	for _, tp := range tuples {
		seen[tp[0].Int()] = true
	}
	return float64(len(seen))
}

func mergedReservoir(t *testing.T, s *exec.CollectorState, col int) interface {
	Seen() int64
	Sample() []types.Value
} {
	t.Helper()
	for i, c := range s.Spec.HistCols {
		if c == col {
			return s.Res[i]
		}
	}
	t.Fatalf("no reservoir for column %d", col)
	return nil
}

// TestMergeOrderIndependentCounts: merging is associative on the exact
// quantities regardless of partition order.
func TestMergeOrderIndependentCounts(t *testing.T) {
	tuples := genTuples(5000, 200, 9)
	node := collectorNode()
	build := func(order []int) *plan.Observed {
		states := make([]*exec.CollectorState, 4)
		for w := range states {
			states[w] = exec.NewCollectorState(node, w)
		}
		for i, tp := range tuples {
			states[i%4].Observe(tp)
		}
		m := exec.NewCollectorState(node, 0)
		for _, w := range order {
			m.Merge(states[w])
		}
		return m.Observed()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if a.Rows != b.Rows || a.Bytes != b.Bytes {
		t.Errorf("merge order changed counts: %g/%g vs %g/%g", a.Rows, a.Bytes, b.Rows, b.Bytes)
	}
	for col := range a.Mins {
		if !a.Mins[col].Equal(b.Mins[col]) || !a.Maxs[col].Equal(b.Maxs[col]) {
			t.Errorf("merge order changed extrema on column %d", col)
		}
	}
}
