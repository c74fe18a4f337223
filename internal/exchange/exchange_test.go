package exchange

import (
	"bytes"
	"context"
	"errors"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/types"
)

// sliceOp is a test source over a fixed tuple slice.
type sliceOp struct {
	sch  *types.Schema
	rows []types.Tuple
	i    int
}

func (s *sliceOp) Schema() *types.Schema { return s.sch }
func (s *sliceOp) Open() error           { s.i = 0; return nil }
func (s *sliceOp) Close() error          { return nil }
func (s *sliceOp) Next() (types.Tuple, error) {
	if s.i >= len(s.rows) {
		return nil, nil
	}
	t := s.rows[s.i]
	s.i++
	return t, nil
}

func intRow(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.NewInt(v)
	}
	return t
}

// TestRegionFirstErrorWinsAndCancels: the first failure cancels the
// region; queue operations unblock instead of leaking goroutines.
func TestRegionFirstErrorWins(t *testing.T) {
	r := newRegion(context.Background())
	first := errors.New("first")
	r.fail(first)
	r.fail(errors.New("second"))
	if r.cause() != first {
		t.Errorf("cause() = %v, want the first error", r.cause())
	}
	select {
	case <-r.ctx.Done():
	default:
		t.Error("region not cancelled after fail")
	}
	// A send into a full queue must unblock via cancellation.
	box := newOutbox(r, nil, false, make(chan *chunk)) // unbuffered, nobody reading
	box.put(0, intRow(1))
	if err := box.finish(&sliceOp{}); err != first {
		t.Errorf("finish into a dead region = %v, want the region's error", err)
	}
}

// TestPoolContainsPanics: the region is its goroutines' one owner, so a
// panicking worker surfaces as the region's cause, named by its label,
// and never crashes the process; the query's Workers counts every
// goroutine the region started.
func TestPoolContainsPanics(t *testing.T) {
	c := &exec.Ctx{Workers: new(atomic.Int64)}
	r := newRegion(context.Background())
	r.spawn(c, "boom", func() error { panic("worker exploded") })
	r.spawn(c, "fine", func() error { return nil })
	r.wg.Wait()
	if err := r.cause(); err == nil || !strings.Contains(err.Error(), "boom panicked: worker exploded") {
		t.Errorf("cause() = %v, want the contained panic, named by its label", err)
	}
	if n := c.Workers.Load(); n != 2 {
		t.Errorf("Workers = %d, want 2", n)
	}
}

// TestSpawnLabelsByRole: a region goroutine carries its role's pprof
// labels, so a CPU profile splits a parallel query by role, and labelling
// it allocates nothing.
func TestSpawnLabelsByRole(t *testing.T) {
	c := &exec.Ctx{}
	r := newRegion(context.Background())
	hold := make(chan struct{})
	r.spawn(c, "probe-route-1", func() error { <-hold; return nil })
	var prof bytes.Buffer
	for i := 0; i < 200 && !strings.Contains(prof.String(), `"role":"probe-route"`); i++ {
		time.Sleep(time.Millisecond)
		prof.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(hold)
	r.wg.Wait()
	if !strings.Contains(prof.String(), `"role":"probe-route"`) {
		t.Errorf("no goroutine labelled role=probe-route in:\n%s", prof.String())
	}
	spawn := func(label string) func() {
		return func() {
			r := newRegion(context.Background())
			r.spawn(c, label, func() error { return nil })
			r.wg.Wait()
		}
	}
	if labelled, plain := testing.AllocsPerRun(100, spawn("join-worker-0")), testing.AllocsPerRun(100, spawn("unlabelled-0")); labelled != plain {
		t.Errorf("a labelled spawn allocates %.0f objects, an unlabelled one %.0f", labelled, plain)
	}
}

// TestRegionSpawnPropagatesWorkerError: an error returned by a spawned
// worker is recorded before the region's WaitGroup releases.
func TestRegionSpawnPropagatesWorkerError(t *testing.T) {
	r := newRegion(context.Background())
	c := &exec.Ctx{}
	boom := errors.New("route failed")
	r.spawn(c, "t", func() error { return boom })
	r.wg.Wait()
	if r.cause() != boom {
		t.Errorf("cause() = %v, want %v", r.cause(), boom)
	}
}

// TestWorkerCtxSplitsIdentity: worker contexts carry partition identity
// and the shared cancellation context.
func TestWorkerCtxSplits(t *testing.T) {
	r := newRegion(context.Background())
	parent := &exec.Ctx{CheckEvery: 16, Meter: storage.NewCostMeter(storage.DefaultCostWeights())}
	wc := workerCtx(parent, r, 2, 4, 0.25)
	if wc.Part != 2 || wc.PartOf != 4 {
		t.Errorf("partition identity = %d/%d, want 2/4", wc.Part, wc.PartOf)
	}
	if wc.GrantShare != 0.25 {
		t.Errorf("grant share = %g", wc.GrantShare)
	}
	if wc.Context != r.ctx {
		t.Error("worker context not bound to the region")
	}
	if wc.Meter == nil {
		t.Error("worker has no tributary meter")
	}
}
