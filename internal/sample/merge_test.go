package sample

import (
	"math"
	"testing"

	"repro/internal/types"
)

func TestMergeSumsSeen(t *testing.T) {
	a := NewReservoir(64, 64, 1)
	b := NewReservoir(64, 64, 2)
	for i := 0; i < 1000; i++ {
		a.Add(types.NewInt(int64(i)))
	}
	for i := 1000; i < 1500; i++ {
		b.Add(types.NewInt(int64(i)))
	}
	a.Merge(b)
	if a.Seen() != 1500 {
		t.Errorf("Seen = %d, want 1500", a.Seen())
	}
	if len(a.Sample()) != 64 {
		t.Errorf("sample size = %d, want full capacity 64", len(a.Sample()))
	}
	for _, v := range a.Sample() {
		if v.Int() < 0 || v.Int() >= 1500 {
			t.Errorf("merged sample holds %v, outside both inputs", v)
		}
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a := NewReservoir(64, 64, 1)
	b := NewReservoir(64, 64, 2)
	for i := 0; i < 100; i++ {
		b.Add(types.NewInt(int64(i)))
	}
	a.Merge(b)
	if a.Seen() != 100 || len(a.Sample()) != 64 {
		t.Errorf("Seen=%d sample=%d after merge into empty", a.Seen(), len(a.Sample()))
	}
	// And the other direction: merging an empty reservoir is a no-op.
	before := len(a.Sample())
	a.Merge(NewReservoir(64, 64, 3))
	if a.Seen() != 100 || len(a.Sample()) != before {
		t.Error("merging an empty reservoir changed state")
	}
}

// TestMergeProportionalRepresentation: each side's share of the merged
// sample must track its share of the merged stream — the weighted-merge
// property that makes per-partition reservoirs equivalent to one
// reservoir over the union. Averaged over many seeds to bound variance.
func TestMergeProportionalRepresentation(t *testing.T) {
	const trials = 200
	var fromA float64
	for s := int64(0); s < trials; s++ {
		a := NewReservoir(64, 64, s*2+1)
		b := NewReservoir(64, 64, s*2+2)
		for i := 0; i < 3000; i++ { // side A: values < 10000
			a.Add(types.NewInt(int64(i)))
		}
		for i := 10000; i < 11000; i++ { // side B: values >= 10000
			b.Add(types.NewInt(int64(i)))
		}
		a.Merge(b)
		for _, v := range a.Sample() {
			if v.Int() < 10000 {
				fromA++
			}
		}
	}
	got := fromA / (trials * 64)
	want := 3000.0 / 4000.0
	if math.Abs(got-want) > 0.05 {
		t.Errorf("side A holds %.3f of the merged sample, want ~%.3f", got, want)
	}
}

// TestMergeUniformWithinSide: a reservoir that never overflowed holds
// its stream in arrival order, so the merge must draw uniformly from
// the side's remaining items rather than consuming a prefix. Regression
// test for a bias where merged samples over-represented early arrivals:
// track the mean arrival index of side-B survivors when B contributes
// only part of its (never-overflowed, in-order) reservoir. Under a
// uniform draw the mean index is ~(n-1)/2; the prefix bug pulled it
// down toward the count actually taken.
func TestMergeUniformWithinSide(t *testing.T) {
	const (
		trials = 300
		bRows  = 256 // fills B exactly: never overflows, items in arrival order
	)
	var idxSum, nTaken float64
	for s := int64(0); s < trials; s++ {
		a := NewReservoir(64, 64, s*2+1)
		b := NewReservoir(256, 256, s*2+2)
		for i := 0; i < 1000; i++ {
			a.Add(types.NewInt(int64(i)))
		}
		for i := 0; i < bRows; i++ {
			b.Add(types.NewInt(int64(10000 + i))) // value encodes arrival index
		}
		a.Merge(b)
		for _, v := range a.Sample() {
			if v.Int() >= 10000 {
				idxSum += float64(v.Int() - 10000)
				nTaken++
			}
		}
	}
	got := idxSum / nTaken
	want := float64(bRows-1) / 2 // uniform over arrival indices 0..255
	// ~13 B-items survive per trial, so the prefix bug gave a mean of
	// ~6 — far outside this tolerance; a uniform draw sits near 127.5.
	if math.Abs(got-want) > 10 {
		t.Errorf("mean arrival index of merged side-B items = %.1f, want ~%.1f (uniform)", got, want)
	}
}

// TestMergeIntoEmptyUniform covers the empty-r fast path: adopting a
// larger never-overflowed donor must keep a uniform subset, not the
// first cap items.
func TestMergeIntoEmptyUniform(t *testing.T) {
	const trials = 300
	var idxSum float64
	for s := int64(0); s < trials; s++ {
		a := NewReservoir(64, 64, s*2+1)
		b := NewReservoir(256, 256, s*2+2)
		for i := 0; i < 256; i++ {
			b.Add(types.NewInt(int64(i)))
		}
		a.Merge(b)
		if len(a.Sample()) != 64 {
			t.Fatalf("sample size = %d, want 64", len(a.Sample()))
		}
		for _, v := range a.Sample() {
			idxSum += float64(v.Int())
		}
	}
	got := idxSum / (trials * 64)
	want := 255.0 / 2
	// The truncation bug kept indices 0..63 (mean 31.5).
	if math.Abs(got-want) > 10 {
		t.Errorf("mean arrival index after empty-merge = %.1f, want ~%.1f (uniform)", got, want)
	}
}

func TestMergeDeterministic(t *testing.T) {
	run := func() []types.Value {
		a := NewReservoir(32, 32, 7)
		b := NewReservoir(32, 32, 8)
		for i := 0; i < 500; i++ {
			a.Add(types.NewInt(int64(i)))
			b.Add(types.NewInt(int64(i + 500)))
		}
		a.Merge(b)
		return append([]types.Value(nil), a.Sample()...)
	}
	x, y := run(), run()
	for i := range x {
		if !x[i].Equal(y[i]) {
			t.Fatal("same seeds produced different merged samples")
		}
	}
}
