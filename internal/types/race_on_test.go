//go:build race

package types

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates on its own behalf.
const raceEnabled = true
