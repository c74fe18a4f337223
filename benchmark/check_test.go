package main

import "testing"

func TestSameRowsIsAMultisetComparison(t *testing.T) {
	want := [][]string{{"ASIA", "3"}, {"EUROPE", "5"}, {"ASIA", "3"}}
	for _, tc := range []struct {
		name string
		got  [][]string
		same bool
	}{
		{"identical", [][]string{{"ASIA", "3"}, {"EUROPE", "5"}, {"ASIA", "3"}}, true},
		{"reordered", [][]string{{"EUROPE", "5"}, {"ASIA", "3"}, {"ASIA", "3"}}, true},
		{"duplicate count differs", [][]string{{"EUROPE", "5"}, {"EUROPE", "5"}, {"ASIA", "3"}}, false},
		{"row missing", [][]string{{"ASIA", "3"}, {"EUROPE", "5"}}, false},
		{"cell differs", [][]string{{"ASIA", "3"}, {"EUROPE", "6"}, {"ASIA", "3"}}, false},
		{"arity differs", [][]string{{"ASIA"}, {"EUROPE", "5"}, {"ASIA", "3"}}, false},
	} {
		if got := sameRows(want, tc.got); got != tc.same {
			t.Errorf("%s: sameRows = %v, want %v", tc.name, got, tc.same)
		}
	}
	if !sameRows(nil, [][]string{}) {
		t.Error("two empty results differ")
	}
}

func TestSameRowsFloatTolerance(t *testing.T) {
	want := [][]string{{"FRANCE", "1234567.891234"}, {"GERMANY", "0.1"}}
	// Parallel summation moves the last digits, which also changes how
	// the rendered rows sort.
	near := [][]string{{"GERMANY", "0.10000000000000002"}, {"FRANCE", "1234567.8912340002"}}
	if !sameRows(want, near) {
		t.Error("rows equal to 1e-9 relative reported different")
	}
	far := [][]string{{"GERMANY", "0.1"}, {"FRANCE", "1234567.9"}}
	if sameRows(want, far) {
		t.Error("rows 1e-8 apart reported equal")
	}
	// Tolerance applies to numbers only.
	if sameRows([][]string{{"abc"}}, [][]string{{"abd"}}) {
		t.Error("different strings reported equal")
	}
	// Each got row can satisfy one wanted row only.
	if sameRows([][]string{{"1.0"}, {"1.0"}}, [][]string{{"1.00000000001"}, {"2.0"}}) {
		t.Error("one row matched twice")
	}
}
