package obs

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
)

// metered gives p a meter of its own and returns a function that brings
// the meter's cost to c.
func metered(p *Progress) func(c float64) {
	p.Meter = storage.NewCostMeter(storage.DefaultCostWeights())
	return func(c float64) { p.Meter.ChargeRaw(c - p.Meter.Cost()) }
}

func TestNilProgressIsDisabledNoOp(t *testing.T) {
	var p *Progress
	if p.Enabled() {
		t.Fatal("nil progress reports enabled")
	}
	p.StartPlan(nil, nil)
	p.SetEstimate(10)
	p.NoteRatio(nil)
	p.RecordDecision(2, true)
	p.Finish()
	if p.Score() != 0 || p.Fraction() != 0 || p.Cost() != 0 || p.SpillBytes() != 0 || p.Switches() != 0 {
		t.Fatal("nil progress returned nonzero state")
	}
	if s := p.Snapshot(true); s.Query != "" {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestScoreRisesWithOvershootAndClampsAtCheckpoint(t *testing.T) {
	p := NewProgress("s1_q1", 1, "select 1", false)
	p.SetEstimate(100)
	setCost := metered(p)

	// On estimate: consumed plus remainder equals the estimate.
	setCost(50)
	if s := p.Score(); s != 1 {
		t.Fatalf("on-estimate score = %v, want 1", s)
	}

	// An operator overshooting its row estimate 3x inflates the
	// unconsumed remainder: S = (50 + 50*3)/100 = 2.
	o := &OpProgress{EstRows: 10}
	o.AddRows(30)
	p.NoteRatio(o)
	if s := p.Score(); s != 2 {
		t.Fatalf("overshoot score = %v, want 2", s)
	}

	// The ratio is a high-water mark: a later, smaller observation
	// cannot lower it.
	low := &OpProgress{EstRows: 100}
	low.AddRows(50)
	p.NoteRatio(low)
	if s := p.Score(); s != 2 {
		t.Fatalf("score dropped to %v after a smaller ratio", s)
	}

	// A checkpoint that measured the query 2.5x off clamps from below.
	p.RecordDecision(2.5, false)
	if s := p.Score(); s != 2.5 {
		t.Fatalf("clamped score = %v, want 2.5", s)
	}
	if s := p.Snapshot(false); s.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", s.Checkpoints)
	}
}

func TestFractionMonotoneAndFinishes(t *testing.T) {
	p := NewProgress("s1_q2", 1, "select 1", false)
	p.SetEstimate(100)
	setCost := metered(p)
	if f := p.Fraction(); f != 0 {
		t.Fatalf("initial fraction = %v", f)
	}
	prev := 0.0
	for _, c := range []float64{10, 50, 90, 100, 150} {
		setCost(c)
		f := p.Fraction()
		if f < prev {
			t.Fatalf("fraction went backwards: %v after %v", f, prev)
		}
		if f > 1 {
			t.Fatalf("fraction = %v > 1 at cost %v", f, c)
		}
		prev = f
	}
	p.Finish()
	if f := p.Fraction(); f != 1 {
		t.Fatalf("finished fraction = %v, want 1", f)
	}
}

func TestFinishFreezesElapsed(t *testing.T) {
	p := NewProgress("s1_q3", 1, "select 1", false)
	p.SetEstimate(10)
	metered(p)(5)
	p.Finish()
	s1 := p.Snapshot(false)
	s2 := p.Snapshot(false)
	if s1.ElapsedMS != s2.ElapsedMS {
		t.Fatalf("finished elapsed kept growing: %d then %d", s1.ElapsedMS, s2.ElapsedMS)
	}
	if s1.State != "done" {
		t.Fatalf("state = %q, want done", s1.State)
	}
}

func TestSetEstimateFirstPlanWins(t *testing.T) {
	p := NewProgress("s1_q4", 1, "select 1", false)
	p.SetEstimate(100)
	p.SetEstimate(999) // a post-switch re-estimate must not move the baseline
	if s := p.Snapshot(false); s.EstCost != 100 {
		t.Fatalf("est cost = %v, want 100", s.EstCost)
	}
}

func TestOpProgressWorkerCounting(t *testing.T) {
	o := &OpProgress{}
	if o.stateName() != "pending" {
		t.Fatalf("initial state = %q", o.stateName())
	}
	o.MarkOpen()
	o.MarkOpen() // a parallel clone shares the entry
	o.MarkDone()
	if o.stateName() != "open" {
		t.Fatalf("state after one of two workers closed = %q", o.stateName())
	}
	o.MarkDone()
	if o.stateName() != "done" {
		t.Fatalf("state after all workers closed = %q", o.stateName())
	}
}

func TestSpillBytesIsHighWaterMark(t *testing.T) {
	o := &OpProgress{}
	o.SetSpillBytes(100)
	o.SetSpillBytes(40) // partitions dropped as consumed
	p := NewProgress("s1_q5", 1, "select 1", false)
	p.mu.Lock()
	p.list = append(p.list, o)
	p.mu.Unlock()
	if b := p.SpillBytes(); b != 100 {
		t.Fatalf("spill = %v, want high-water 100", b)
	}
}

// TestOnlyATimedProgressMeasuresCost: the always-on record carries no
// EXPLAIN ANALYZE state; a timed one keeps its plans and derives self
// cost as inclusive cost minus the children's.
func TestOnlyATimedProgressMeasuresCost(t *testing.T) {
	inner := &plan.Scan{Table: &catalog.Table{Name: "t"}}
	outer := &plan.Filter{Input: inner}
	record := func(p *Progress) {
		p.StartPlan(outer, nil)
		p.Op(outer).AddCost(5)
		p.Op(inner).AddCost(2)
		p.Op(inner).RecordWorker(2, 10)
	}
	untimed := NewProgress("s1_q6", 1, "select 1", false)
	record(untimed)
	if untimed.Op(outer).act != nil || len(untimed.roots) != 0 || untimed.Render() != "" || untimed.TotalSelfCost() != 0 {
		t.Fatal("an untimed progress record carries EXPLAIN ANALYZE state")
	}
	timed := NewProgress("s1_q7", 1, "select 1", true)
	record(timed)
	if got := timed.SelfCost(outer); got != 3 {
		t.Errorf("outer self cost = %v, want 5 - 2", got)
	}
	if got := timed.TotalSelfCost(); got != 5 {
		t.Errorf("total self cost = %v, want the root's inclusive 5", got)
	}
	if a := timed.Op(inner).act; a.workers != 1 || a.maxWorkerMem != 10 {
		t.Errorf("worker rollup = %d workers, %v max memory", a.workers, a.maxWorkerMem)
	}
}

func TestProgressRegistryLifecycle(t *testing.T) {
	r := NewProgressRegistry()
	p := NewProgress("s1_q1", 1, "select 1", false)
	r.Start(p)
	p.SetEstimate(10)
	metered(p)(5)
	if n := r.NumRunning(); n != 1 {
		t.Fatalf("running = %d", n)
	}
	if got := r.Get("s1_q1"); got != p {
		t.Fatal("Get missed the running query")
	}
	if s := r.MaxScore(); s != 1 {
		t.Fatalf("max score = %v, want 1", s)
	}
	r.Finish(p)
	if n := r.NumRunning(); n != 0 {
		t.Fatalf("running after finish = %d", n)
	}
	if got := r.Get("s1_q1"); got != p {
		t.Fatal("Get missed the recently finished query")
	}
	if rec := r.Recent(); len(rec) != 1 || rec[0] != p {
		t.Fatalf("recent = %v", rec)
	}

	// The recent ring is bounded: overflow evicts oldest-first.
	for i := 0; i < RecentProgressCap+5; i++ {
		q := NewProgress(fmt.Sprintf("x%d", i), 1, "select 1", false)
		r.Start(q)
		r.Finish(q)
	}
	if n := len(r.Recent()); n != RecentProgressCap {
		t.Fatalf("recent ring = %d entries, want %d", n, RecentProgressCap)
	}
}
