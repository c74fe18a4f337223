// Package storage provides the engine's storage substrate: a simulated
// disk with I/O cost accounting, a slotted page format, an LRU buffer
// pool, heap files, temporary files for spills and materialization, and a
// B+tree index.
//
// The paper's experiments ran on real disks (Seagate Barracudas behind a
// 32 MB buffer pool per node). This package substitutes a deterministic
// simulator: every page read, page write, and tuple touched is charged to
// a CostMeter at configurable weights. "Execution time" throughout the
// repository means simulated cost units from this meter, which makes the
// paper's effects (multi-pass hash joins, materialization overhead,
// statistics-collection CPU) reproducible and exactly measurable.
package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// CostWeights maps physical events to simulated time units. The defaults
// approximate a late-90s machine: one random 8 KB page I/O ≈ 10 ms, one
// tuple of CPU work ≈ 20 µs, so a page I/O costs ~500 tuple touches. One
// cost unit is one page I/O.
type CostWeights struct {
	PageRead  float64 // cost of reading one page from "disk"
	PageWrite float64 // cost of writing one page to "disk"
	TupleCPU  float64 // cost of processing one tuple in an operator
	StatCPU   float64 // additional cost per tuple examined by a statistics collector
}

// DefaultCostWeights returns the calibration used by all benchmarks.
func DefaultCostWeights() CostWeights {
	return CostWeights{
		PageRead:  1.0,
		PageWrite: 1.0,
		TupleCPU:  0.002,
		StatCPU:   0.001,
	}
}

// CostMeter accumulates simulated execution cost. It is safe for
// concurrent use; pipelined operators within a segment share one meter.
// The counters are atomics, not a mutex: scans charge one tuple at a
// time, and a lock per tuple was a measurable share of a query.
type CostMeter struct {
	weights CostWeights // fixed at construction
	parent  *CostMeter  // a tributary forwards its counters here, at Flush

	pageReads  atomic.Int64
	pageWrites atomic.Int64
	tupleCPU   atomic.Int64
	statCPU    atomic.Int64
	extra      atomic.Uint64 // float64 bits: directly-charged costs (e.g. re-optimization time)

	flushMu sync.Mutex
	sent    Snapshot // the counter values the last Flush forwarded up to
}

// NewCostMeter returns a meter with the given weights.
func NewCostMeter(w CostWeights) *CostMeter {
	return &CostMeter{weights: w}
}

// Tributary returns a child meter for one parallel worker. Every charge
// counts on the child at once, so the worker's cost is attributable to
// it (a gather point reads per-worker totals), and reaches this meter
// when the child is flushed: the worker flushes as it hands a chunk of
// tuples downstream and when it exits, so what two workers contend for
// is one add per chunk, not one per tuple. This meter therefore trails a
// running worker by at most the charges behind one chunk, and is exact
// wherever the worker has been waited for — which is everywhere the
// dispatcher's elapsed-cost arithmetic reads it (a parallel join's Open
// returns, and a gather ends, only after its workers flushed). The
// counters are integers, so the totals are those of forwarding each
// charge by itself.
func (m *CostMeter) Tributary() *CostMeter {
	return &CostMeter{weights: m.weights, parent: m}
}

// Flush forwards to the parent what this tributary has counted since its
// last Flush. On a meter that is not a tributary it does nothing.
func (m *CostMeter) Flush() {
	if m == nil || m.parent == nil {
		return
	}
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	now := m.Snapshot()
	d := now.Sub(m.sent)
	m.sent = now
	if d.PageReads != 0 {
		m.parent.pageReads.Add(d.PageReads)
	}
	if d.PageWrites != 0 {
		m.parent.pageWrites.Add(d.PageWrites)
	}
	if d.TupleCPU != 0 {
		m.parent.tupleCPU.Add(d.TupleCPU)
	}
	if d.StatCPU != 0 {
		m.parent.statCPU.Add(d.StatCPU)
	}
}

// Unflushed returns what this tributary has counted and not yet
// forwarded: zero counters on a flushed tributary and on any other meter.
func (m *CostMeter) Unflushed() Snapshot {
	if m.parent == nil {
		return Snapshot{Weights: m.weights}
	}
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	d := m.Snapshot().Sub(m.sent)
	d.Extra = 0 // raw charges are forwarded as they are made
	return d
}

// ChargeRead records n simulated page reads.
func (m *CostMeter) ChargeRead(n int64) { m.pageReads.Add(n) }

// ChargeWrite records n simulated page writes.
func (m *CostMeter) ChargeWrite(n int64) { m.pageWrites.Add(n) }

// ChargeTuples records n tuples of operator CPU work.
func (m *CostMeter) ChargeTuples(n int64) { m.tupleCPU.Add(n) }

// ChargeStatTuples records n tuples of statistics-collection CPU work.
func (m *CostMeter) ChargeStatTuples(n int64) { m.statCPU.Add(n) }

// ChargeRaw adds a pre-computed cost in simulated units. The dispatcher
// uses it to charge re-optimization time (T_opt). Raw charges are rare
// and floating-point, so a tributary forwards each one as it is made: a
// batched sum would round differently.
func (m *CostMeter) ChargeRaw(units float64) {
	for ; m != nil; m = m.parent {
		for {
			old := m.extra.Load()
			if m.extra.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+units)) {
				break
			}
		}
	}
}

// Snapshot is a point-in-time copy of a meter's counters.
type Snapshot struct {
	PageReads  int64
	PageWrites int64
	TupleCPU   int64
	StatCPU    int64
	Extra      float64
	Weights    CostWeights
}

// Snapshot returns the current counters. Each is read atomically; a
// snapshot taken while other goroutines charge may straddle one of
// their charges.
func (m *CostMeter) Snapshot() Snapshot {
	return Snapshot{
		PageReads:  m.pageReads.Load(),
		PageWrites: m.pageWrites.Load(),
		TupleCPU:   m.tupleCPU.Load(),
		StatCPU:    m.statCPU.Load(),
		Extra:      math.Float64frombits(m.extra.Load()),
		Weights:    m.weights,
	}
}

// Cost converts the snapshot's counters to simulated time units.
func (s Snapshot) Cost() float64 {
	return float64(s.PageReads)*s.Weights.PageRead +
		float64(s.PageWrites)*s.Weights.PageWrite +
		float64(s.TupleCPU)*s.Weights.TupleCPU +
		float64(s.StatCPU)*s.Weights.StatCPU +
		s.Extra
}

// Sub returns the delta s - o, for measuring a bounded interval of work.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		PageReads:  s.PageReads - o.PageReads,
		PageWrites: s.PageWrites - o.PageWrites,
		TupleCPU:   s.TupleCPU - o.TupleCPU,
		StatCPU:    s.StatCPU - o.StatCPU,
		Extra:      s.Extra - o.Extra,
		Weights:    s.Weights,
	}
}

// Cost returns the meter's total simulated time.
func (m *CostMeter) Cost() float64 { return m.Snapshot().Cost() }

// Weights returns the meter's cost weights.
func (m *CostMeter) Weights() CostWeights { return m.weights }

// Reset zeroes all counters, keeping the weights.
func (m *CostMeter) Reset() {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.sent = Snapshot{}
	m.pageReads.Store(0)
	m.pageWrites.Store(0)
	m.tupleCPU.Store(0)
	m.statCPU.Store(0)
	m.extra.Store(0)
}

// String renders the meter for diagnostics.
func (s Snapshot) String() string {
	return fmt.Sprintf("reads=%d writes=%d cpu=%d stat=%d extra=%.2f cost=%.2f",
		s.PageReads, s.PageWrites, s.TupleCPU, s.StatCPU, s.Extra, s.Cost())
}
