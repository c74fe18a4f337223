package bench

import "testing"

// TestMonitoringOverheadBound pins the cost of live-progress monitoring
// with the measurement the CI gate uses (ProgressOverhead: process CPU
// time, collection off, the median of back-to-back on/off pairs): the
// geometric-mean ratio over the medium and complex queries stays within
// 5%.
func TestMonitoringOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the ratio")
	}
	if testing.Short() {
		t.Skip("a timed measurement")
	}
	const bound = 1.05
	rows, err := ProgressOverhead(Default(), 15)
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeOverhead(rows)
	if s.Skipped {
		t.Fatal("no valid overhead measurement")
	}
	t.Logf("geomean ratio %.3f, max %.3f", s.GeomeanRatio, s.MaxRatio)
	if s.GeomeanRatio > bound {
		t.Fatalf("monitoring overhead exceeds %.0f%%:\n%s", (bound-1)*100,
			FormatOverhead("progress on / off, CPU time:", rows))
	}
}
