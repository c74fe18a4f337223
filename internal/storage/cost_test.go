package storage

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCostMeterAccounting(t *testing.T) {
	m := NewCostMeter(CostWeights{PageRead: 1, PageWrite: 2, TupleCPU: 0.5, StatCPU: 0.25})
	m.ChargeRead(3)
	m.ChargeWrite(2)
	m.ChargeTuples(4)
	m.ChargeStatTuples(8)
	m.ChargeRaw(1.5)
	want := 3.0 + 4.0 + 2.0 + 2.0 + 1.5
	if got := m.Cost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost() = %g, want %g", got, want)
	}
}

func TestCostMeterSnapshotSub(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	m.ChargeRead(10)
	before := m.Snapshot()
	m.ChargeRead(5)
	m.ChargeTuples(100)
	delta := m.Snapshot().Sub(before)
	if delta.PageReads != 5 || delta.TupleCPU != 100 {
		t.Errorf("delta = %+v", delta)
	}
	if delta.Cost() != 5*1.0+100*0.002 {
		t.Errorf("delta cost = %g", delta.Cost())
	}
}

func TestCostMeterReset(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	m.ChargeRead(10)
	m.Reset()
	if m.Cost() != 0 {
		t.Errorf("cost after Reset = %g", m.Cost())
	}
	if m.Weights().PageRead != 1.0 {
		t.Error("Reset lost weights")
	}
}

func TestCostMeterConcurrent(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.ChargeRead(1)
				m.ChargeTuples(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.PageReads != 8000 || s.TupleCPU != 8000 {
		t.Errorf("concurrent counters: %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	m.ChargeRead(1)
	if s := m.Snapshot().String(); s == "" {
		t.Error("empty Snapshot.String()")
	}
}

// A tributary counts every charge at once and forwards at Flush: after a
// flush the parent holds exactly the sum of its tributaries, before it
// never more, and the integer counters make the total that of forwarding
// every charge by itself. Workers charge and flush concurrently with a
// reader of the parent (run under -race).
func TestTributaryForwardsPerFlush(t *testing.T) {
	parent := NewCostMeter(DefaultCostWeights())
	const workers, rounds, chunk = 4, 200, 256
	tribs := make([]*CostMeter, workers)
	for i := range tribs {
		tribs[i] = parent.Tributary()
	}

	// Nothing moves without a flush.
	tribs[0].ChargeTuples(5)
	tribs[0].ChargeRead(2)
	if s := parent.Snapshot(); s.TupleCPU != 0 || s.PageReads != 0 {
		t.Fatalf("parent saw %+v before any flush", s)
	}
	if u := tribs[0].Unflushed(); u.TupleCPU != 5 || u.PageReads != 2 {
		t.Fatalf("Unflushed = %+v, want the 5 tuples and 2 reads charged", u)
	}
	tribs[0].Flush()
	tribs[0].Flush() // nothing new: forwards nothing twice
	if s := parent.Snapshot(); s.TupleCPU != 5 || s.PageReads != 2 {
		t.Fatalf("parent holds %+v after the flush, want 5 tuples and 2 reads", s)
	}
	if u := tribs[0].Unflushed(); u.Cost() != 0 {
		t.Fatalf("Unflushed = %+v after a flush", u)
	}
	// A raw charge is floating-point and rare: forwarded as it is made.
	tribs[0].ChargeRaw(1.5)
	if got := parent.Snapshot().Extra; got != 1.5 {
		t.Fatalf("parent's raw charges = %g before any flush, want 1.5", got)
	}

	sum := func() (s Snapshot) {
		for _, m := range tribs {
			c := m.Snapshot()
			s.TupleCPU += c.TupleCPU
			s.StatCPU += c.StatCPU
			s.PageReads += c.PageReads
			s.PageWrites += c.PageWrites
		}
		return s
	}
	var stop atomic.Bool
	var wg, watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for !stop.Load() {
			// Counters only grow: the parent read first cannot exceed
			// the tributaries read after it.
			p := parent.Snapshot()
			if s := sum(); p.TupleCPU > s.TupleCPU || p.StatCPU > s.StatCPU || p.PageReads > s.PageReads || p.PageWrites > s.PageWrites {
				t.Errorf("parent %+v ahead of its tributaries %+v", p, s)
				return
			}
		}
	}()
	for _, m := range tribs {
		wg.Add(1)
		go func(m *CostMeter) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < chunk; i++ {
					m.ChargeTuples(1)
					m.ChargeStatTuples(1)
				}
				m.ChargeRead(1)
				m.ChargeWrite(1)
				m.Flush()
			}
			m.ChargeTuples(3) // a tail the exit path flushes
			m.Flush()
		}(m)
	}
	wg.Wait()
	stop.Store(true)
	watcher.Wait()

	p, s := parent.Snapshot(), sum()
	if p.TupleCPU != s.TupleCPU || p.StatCPU != s.StatCPU || p.PageReads != s.PageReads || p.PageWrites != s.PageWrites {
		t.Errorf("after every flush the parent holds %+v, its tributaries %+v", p, s)
	}
	if want := int64(5 + workers*(rounds*chunk+3)); p.TupleCPU != want {
		t.Errorf("parent counted %d tuples, want %d", p.TupleCPU, want)
	}

	// A tributary of a tributary reaches the root in two flushes; Flush
	// on a root and on nil is a no-op.
	mid := parent.Tributary()
	leaf := mid.Tributary()
	leaf.ChargeTuples(7)
	leaf.Flush()
	if mid.Snapshot().TupleCPU != 7 || parent.Snapshot().TupleCPU != p.TupleCPU {
		t.Error("a leaf's flush must stop at its own parent")
	}
	mid.Flush()
	if got := parent.Snapshot().TupleCPU; got != p.TupleCPU+7 {
		t.Errorf("root holds %d tuples after both flushes, want %d", got, p.TupleCPU+7)
	}
	parent.Flush()
	(*CostMeter)(nil).Flush()
}
