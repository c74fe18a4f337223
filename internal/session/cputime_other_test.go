//go:build !unix

package session

import (
	"testing"
	"time"
)

var processStart = time.Now()

// cpuTime falls back to the stopwatch where the process's CPU time
// cannot be read: the measurement then counts the neighbours too.
func cpuTime(*testing.T) time.Duration { return time.Since(processStart) }
