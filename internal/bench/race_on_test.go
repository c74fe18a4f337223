//go:build race

package bench

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation distorts CPU-time measurements.
const raceEnabled = true
