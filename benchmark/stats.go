package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the "percentile" is one or two outliers.
const tailBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank percentile `want` (0..1) of
// xs, lowered until at least tailBeyond samples lie beyond it, but never
// below the median. It reports the percentile actually used so the
// caller can print it beside the sample count. 200 samples are the
// fewest that support want = 0.95.
func tailPercentile(xs []float64, want float64) (used, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(want*float64(n))) - 1
	if lim := n - 1 - tailBeyond; idx > lim {
		idx = lim
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return float64(idx+1) / float64(n), s[idx]
}

// geoMean returns the geometric mean of the positive values in xs, 0 if
// there are none.
func geoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// geoMeanOfMedians is the latency_p50_geo_ms aggregate: the geometric
// mean over classes of each class's median. A pooled median of a mix of
// 30 ms and 130 ms queries would not move when only one class gets
// faster; this moves by 2^(1/k) for a 2x on one of k classes.
func geoMeanOfMedians(byClass map[string][]float64) float64 {
	meds := make([]float64, 0, len(byClass))
	for _, xs := range byClass {
		meds = append(meds, median(xs))
	}
	return geoMean(meds)
}

// ratio returns a/b, 0 when b is 0, so an absent layer reads as 0
// instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
