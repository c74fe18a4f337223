package sketch

import (
	"math"
	"slices"
	"testing"
)

func TestHybridMergeStaysExactUnderThreshold(t *testing.T) {
	a := NewHybridDistinct(100, 64)
	b := NewHybridDistinct(100, 64)
	for i := uint64(0); i < 30; i++ {
		a.AddHash(i)
	}
	for i := uint64(20); i < 60; i++ { // overlaps [20,30)
		b.AddHash(i)
	}
	a.Merge(b)
	if got := a.Estimate(); got != 60 {
		t.Errorf("merged exact estimate = %g, want 60", got)
	}
}

func TestHybridMergeDegradesOnUnionOverflow(t *testing.T) {
	a := NewHybridDistinct(100, 64)
	b := NewHybridDistinct(100, 64)
	for i := uint64(0); i < 80; i++ {
		a.AddHash(hash64(i))
	}
	for i := uint64(80); i < 160; i++ {
		b.AddHash(hash64(i))
	}
	a.Merge(b)
	// 160 > threshold: the union must have degraded to the FM sketch,
	// whose estimate is approximate but in the right ballpark.
	got := a.Estimate()
	if rel := math.Abs(got-160) / 160; rel > 0.5 {
		t.Errorf("degraded estimate = %g, want within 50%% of 160", got)
	}
}

// TestHybridMergeMatchesSingleStream: because FM bitmaps OR exactly and
// the hash function is shared, partitioned counting followed by a merge
// gives the identical estimate to one counter over the whole stream —
// in both exact and sketch regimes.
func TestHybridMergeMatchesSingleStream(t *testing.T) {
	for _, n := range []uint64{50, 5000} {
		single := NewHybridDistinct(1024, 64)
		parts := make([]*HybridDistinct, 4)
		for i := range parts {
			parts[i] = NewHybridDistinct(1024, 64)
		}
		for i := uint64(0); i < n; i++ {
			h := hash64(i)
			single.AddHash(h)
			parts[i%4].AddHash(h)
		}
		merged := parts[0]
		for _, p := range parts[1:] {
			merged.Merge(p)
		}
		if got, want := merged.Estimate(), single.Estimate(); got != want {
			t.Errorf("n=%d: merged estimate %g != single-stream %g", n, got, want)
		}
	}
}

func TestHybridMergeSketchSideForcesDegrade(t *testing.T) {
	a := NewHybridDistinct(10, 64)
	b := NewHybridDistinct(10, 64)
	a.AddHash(hash64(1))
	for i := uint64(0); i < 100; i++ { // b degrades
		b.AddHash(hash64(i))
	}
	a.Merge(b)
	if got := a.Estimate(); got < 10 {
		t.Errorf("merging a degraded counter kept an exact estimate of %g", got)
	}
}

// hash64 is a splitmix64-style scrambler so test hashes exercise the
// sketch's trailing-zero distribution like real value hashes do.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestHybridHolds: Holds says whether AddHash would change the counter,
// while exact and once degraded to the sketch.
func TestHybridHolds(t *testing.T) {
	h := NewHybridDistinct(10, 64)
	check := func(regime string, from, to uint64) {
		for i := from; i < to; i++ {
			c := h.Clone()
			c.AddHash(hash64(i))
			changed := len(c.exact) != len(h.exact) || !slices.Equal(c.fm.maps, h.fm.maps)
			if held := h.Holds(hash64(i)); held == changed {
				t.Errorf("%s: Holds(%d) = %v, adding it changed the counter: %v", regime, i, held, changed)
			}
		}
	}
	for i := uint64(0); i < 5; i++ {
		h.AddHash(hash64(i))
	}
	check("exact", 0, 10)
	for i := uint64(5); i < 200; i++ {
		h.AddHash(hash64(i))
	}
	check("sketched", 150, 400)
}
