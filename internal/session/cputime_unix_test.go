//go:build unix

package session

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is the CPU time, user and system, this process has used.
// go test runs the packages as processes of their own, so unlike a
// stopwatch it does not count what the neighbours are doing.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
