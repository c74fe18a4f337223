//go:build race

package main

// raceEnabled reports that this test binary was built with the race
// detector, under which everything runs about ten times slower.
const raceEnabled = true
