package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		used  float64
		value float64
	}{
		{200, 0.95, 190},    // exactly ten beyond: 191..200
		{400, 0.95, 380},    // more than enough
		{100, 0.90, 90},     // p95 would leave five beyond; lowered to p90
		{21, 11.0 / 21, 11}, // ten beyond leaves the median
		{15, 8.0 / 15, 8},   // too few for any tail: the median itself
		{1, 1, 1},
	} {
		used, v := tailPercentile(seq(tc.n), 0.95)
		if math.Abs(used-tc.used) > 1e-12 || v != tc.value {
			t.Errorf("n=%d: got p%.4f = %v, want p%.4f = %v", tc.n, used, v, tc.used, tc.value)
		}
		if beyond := tc.n - int(v); tc.n >= 2*tailBeyond+1 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if used, v := tailPercentile(nil, 0.95); used != 0 || v != 0 {
		t.Errorf("empty input: got %v, %v", used, v)
	}
}

func TestTailPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	tailPercentile(xs, 0.95)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd count: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even count: %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty: %v", m)
	}
}

func TestGeoMeanOfClassMedians(t *testing.T) {
	classes := map[string][]float64{
		"fast": {1, 2, 3},       // median 2
		"slow": {100, 200, 800}, // median 200
	}
	if g := geoMeanOfMedians(classes); math.Abs(g-20) > 1e-9 {
		t.Errorf("geomean of medians 2 and 200 = %v, want 20", g)
	}
	// A 2x on one of two classes moves the aggregate by 2^(1/2); a
	// pooled median of the six samples would not have moved at all.
	classes["slow"] = []float64{50, 100, 400}
	if g := geoMeanOfMedians(classes); math.Abs(g-20/math.Sqrt2) > 1e-9 {
		t.Errorf("after halving one class: %v, want %v", g, 20/math.Sqrt2)
	}
	if g := geoMeanOfMedians(nil); g != 0 {
		t.Errorf("no classes: %v", g)
	}
}
