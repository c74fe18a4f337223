package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plan"
)

// cancelEnv wires a cancellable context into a fresh test environment
// with CheckEvery=1 so cancellation is detected on the very next tuple.
func cancelEnv(poolPages int) (*testEnv, context.CancelFunc) {
	e := newEnv(poolPages)
	ctx, cancel := context.WithCancel(context.Background())
	e.ctx.Context = ctx
	e.ctx.CheckEvery = 1
	return e, cancel
}

func TestCancelStopsSeqScan(t *testing.T) {
	e, cancel := cancelEnv(64)
	tbl := e.makeTable(t, "r", 1000, 10)
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if _, err := op.Next(); err != nil {
		t.Fatalf("pre-cancel Next: %v", err)
	}
	cancel()
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
}

func TestCancelAmortizationInterval(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 1000, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: only the poll interval delays detection
	e.ctx.Context = ctx
	e.ctx.CheckEvery = 100
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var n int
	for {
		tup, err := op.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Next = %v", err)
			}
			break
		}
		if tup == nil {
			t.Fatal("scan finished without noticing the cancel")
		}
		if n++; n > 100 {
			t.Fatalf("cancel not seen within CheckEvery=100 tuples (saw %d)", n)
		}
	}
}

// TestCancelDefaultPollInterval runs with CheckEvery unset: every
// operator loop must fall back to the shared CancelCheckInterval
// constant, so an already-cancelled context is noticed within that many
// tuples — the bound all operator loops (serial and exchange workers)
// amortize their polls against.
func TestCancelDefaultPollInterval(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", CancelCheckInterval*4, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.ctx.Context = ctx
	e.ctx.CheckEvery = 0 // default cadence
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var n int
	for {
		tup, err := op.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Next = %v", err)
			}
			break
		}
		if tup == nil {
			t.Fatal("scan finished without noticing the cancel")
		}
		if n++; n > CancelCheckInterval {
			t.Fatalf("cancel not seen within CancelCheckInterval=%d tuples (saw %d)", CancelCheckInterval, n)
		}
	}
}

// TestCancelMidBuildClosesChain cancels from inside a spilling hash
// join's build phase (via the fault injector's Do hook) and checks that
// closing the operator tree releases every spill partition's pages.
func TestCancelMidBuildClosesChain(t *testing.T) {
	e, cancel := cancelEnv(256)
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)

	left := e.makeTable(t, "l", 500, 50)
	right := e.makeTable(t, "r", 500, 50)
	j := &plan.HashJoin{
		Build:     scanNode(left),
		Probe:     scanNode(right),
		BuildKeys: []int{1},
		ProbeKeys: []int{1},
	}
	j.Est().Grant = 512 // tiny grant: forces Grace-style spilling early
	op := mustBuild(t, e, j)

	base := e.pool.Disk().NumPages()
	inj.Arm("exec.hashjoin.build", faultinject.Fault{Do: cancel, After: 400})
	err := op.Open()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Open = %v, want context.Canceled", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close after abort: %v", err)
	}
	if got := e.pool.Disk().NumPages(); got != base {
		t.Errorf("disk pages after aborted spill join = %d, want %d (spill partitions leaked)", got, base)
	}
}

// TestInjectedErrorMidProbeReleasesSpill aborts a spilled join during
// partition probing and checks Close drops all remaining partitions.
func TestInjectedErrorMidProbeReleasesSpill(t *testing.T) {
	e := newEnv(256)
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)

	left := e.makeTable(t, "l", 500, 50)
	right := e.makeTable(t, "r", 500, 50)
	j := &plan.HashJoin{
		Build:     scanNode(left),
		Probe:     scanNode(right),
		BuildKeys: []int{1},
		ProbeKeys: []int{1},
	}
	j.Est().Grant = 512
	op := mustBuild(t, e, j)

	base := e.pool.Disk().NumPages()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	inj.Arm("exec.hashjoin.spill", faultinject.Fault{Err: boom, After: 10})
	_, err := Drain(op)
	if !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want injected error", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close after abort: %v", err)
	}
	if got := e.pool.Disk().NumPages(); got != base {
		t.Errorf("disk pages after aborted probe = %d, want %d", got, base)
	}
}

// TestAbortedSortCascadesToChild aborts an external sort over a spilling
// hash join: Sort.Close must cascade so the join's partitions are
// dropped even though the join never reached end of stream.
func TestAbortedSortCascadesToChild(t *testing.T) {
	e := newEnv(256)
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)

	left := e.makeTable(t, "l", 500, 50)
	right := e.makeTable(t, "r", 500, 50)
	j := &plan.HashJoin{
		Build:     scanNode(left),
		Probe:     scanNode(right),
		BuildKeys: []int{1},
		ProbeKeys: []int{1},
	}
	j.Est().Grant = 512
	s := &plan.Sort{Input: j, Keys: []plan.SortKey{{Col: 0}}}
	s.Est().Grant = 512 // the sort spills runs too
	op := mustBuild(t, e, s)

	base := e.pool.Disk().NumPages()
	boom := errors.New("boom")
	inj.Arm("exec.sort.drain", faultinject.Fault{Err: boom, After: 50})
	err := op.Open()
	if !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want injected error", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close after abort: %v", err)
	}
	if got := e.pool.Disk().NumPages(); got != base {
		t.Errorf("disk pages after aborted sort-over-join = %d, want %d", got, base)
	}
}

// TestDeadlineWithWedgedOperator pairs a Delay fault with a context
// deadline: the stalled site returns, the next Tick sees the expired
// deadline, and the query aborts instead of running to completion.
func TestDeadlineWithWedgedOperator(t *testing.T) {
	e := newEnv(64)
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)

	tbl := e.makeTable(t, "r", 1000, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	e.ctx.Context = ctx
	e.ctx.CheckEvery = 1
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	inj.Arm("exec.scan.next", faultinject.Fault{Delay: 30 * time.Millisecond, After: 5})
	_, err := Drain(op)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
}

// TestMaterializeDropsTempOnError checks the half-written temp file is
// released when the drained operator fails mid-stream.
func TestMaterializeDropsTempOnError(t *testing.T) {
	e := newEnv(64)
	inj := faultinject.Enable()
	t.Cleanup(faultinject.Disable)

	tbl := e.makeTable(t, "r", 500, 10)
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	base := e.pool.Disk().NumPages()
	boom := errors.New("boom")
	inj.Arm("exec.materialize.append", faultinject.Fault{Err: boom, After: 100})
	if _, err := Materialize(op, e.ctx); !errors.Is(err, boom) {
		t.Fatalf("Materialize = %v, want injected error", err)
	}
	if got := e.pool.Disk().NumPages(); got != base {
		t.Errorf("disk pages after failed Materialize = %d, want %d (temp heap leaked)", got, base)
	}
}

// TestDoubleCloseIsSafe closes every stateful operator twice; the second
// Close must be a no-op (the abort path can close an operator the normal
// path already closed).
func TestDoubleCloseIsSafe(t *testing.T) {
	e := newEnv(256)
	left := e.makeTable(t, "l", 100, 10)
	right := e.makeTable(t, "r", 100, 10)
	j := &plan.HashJoin{
		Build:     scanNode(left),
		Probe:     scanNode(right),
		BuildKeys: []int{1},
		ProbeKeys: []int{1},
	}
	s := &plan.Sort{Input: j, Keys: []plan.SortKey{{Col: 0}}}
	op := mustBuild(t, e, s)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(op); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := op.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}
