package exec

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/types"
)

// memReporter is implemented by operators that can report their peak
// memory use (hash join, aggregate, sort).
type memReporter interface {
	MemUsed() float64
}

// spillReporter is implemented by operators that can report how many
// bytes they have written to spill files (hash join, aggregate, sort).
type spillReporter interface {
	SpilledBytes() float64
}

// observeFlushRows is how many output rows an observation wrapper
// buffers locally before publishing to the shared accumulators — the
// same amortized cadence idea as Ctx.Tick, keeping the per-tuple cost of
// always-on monitoring to one local increment.
const observeFlushRows = 64

// instrument wraps op in the observation wrapper when the context
// carries a progress record (ctx.Prog). It is the single gate: without
// one the operator is returned untouched, so the bare path never
// allocates or indirects through a wrapper.
func instrument(op Operator, n plan.Node, ctx *Ctx) Operator {
	if op == nil || ctx.Prog == nil {
		return op
	}
	o := &observedOp{op: op, ctx: ctx, prog: ctx.Prog.Op(n), timed: ctx.Prog.Timed()}
	switch n.(type) {
	case *plan.Scan, *plan.IndexJoin:
		o.width = n.Schema().Len()
	}
	return o
}

// Instrument exposes the observation wrapper for operators composed
// outside Build/BuildStep — the exchange subsystem hand-assembles worker
// pipelines from queue sources and needs the same per-node accounting.
// Like the internal gate, it is a no-op when observation is off.
func Instrument(op Operator, n plan.Node, ctx *Ctx) Operator {
	return instrument(op, n, ctx)
}

// CreditOpen adds cost to a timed operator's inclusive cost at its next
// Open: the cost of opening its input, paid earlier by a caller that
// opened the input first (the dispatcher, at each join). Opened from
// the root, the operator would have paid it, and self costs telescope
// only if it counts there.
func CreditOpen(op Operator, cost float64) {
	if o, ok := op.(*observedOp); ok && o.timed {
		o.credit = cost
	}
}

// observedOp publishes one operator's run into its progress record:
// rows, spill footprint and lifecycle state, and — when the query is
// timed for EXPLAIN ANALYZE — inclusive simulated cost and peak memory.
// Cost is measured as meter deltas around each call, so a wrapper's
// inclusive cost covers its whole subtree; the renderer subtracts
// children to get self time. Writes are batched: the hot path touches
// only local fields, and every observeFlushRows rows (plus at open, end
// of stream, and close) the batch is flushed to the shared record where
// concurrent observers and sibling workers meet.
type observedOp struct {
	op    Operator
	ctx   *Ctx
	prog  *obs.OpProgress
	timed bool // measure cost: the record is timed

	rows   int64   // output rows not yet flushed
	cost   float64 // inclusive cost not yet flushed (timed only)
	credit float64 // added to cost by the next Open (CreditOpen)

	// width is the tuple width the plan promises for a leaf that reads a
	// table (scan, index join): every ordinal above it was resolved
	// against that schema, so a tuple of another width is a planner or
	// storage bug, reported here instead of as a wrong answer further
	// up. Zero for every other operator (a partial aggregate's states
	// are legitimately wider than its node's schema).
	width int
}

// Open implements Operator.
func (o *observedOp) Open() error {
	o.prog.MarkOpen()
	var err error
	if !o.timed {
		err = o.op.Open()
	} else {
		before := o.ctx.Meter.Snapshot()
		err = o.op.Open()
		o.cost += o.ctx.Meter.Snapshot().Sub(before).Cost() + o.credit
		o.credit = 0
	}
	// Blocking operators do their heavy lifting (builds, spills) in
	// Open; publish what they produced before the first Next.
	o.flush()
	return err
}

// Next implements Operator.
func (o *observedOp) Next() (types.Tuple, error) {
	var t types.Tuple
	var err error
	if !o.timed {
		t, err = o.op.Next()
	} else {
		before := o.ctx.Meter.Snapshot()
		t, err = o.op.Next()
		o.cost += o.ctx.Meter.Snapshot().Sub(before).Cost()
	}
	if t != nil && err == nil {
		if o.width > 0 && len(t) != o.width {
			return nil, fmt.Errorf("exec: %T emitted a tuple of %d values, its schema has %d", o.op, len(t), o.width)
		}
		if o.rows++; o.rows >= observeFlushRows {
			o.flush()
		}
		return t, nil
	}
	o.flush()
	return t, err
}

// Close implements Operator.
func (o *observedOp) Close() error {
	o.flush()
	o.prog.MarkDone()
	if !o.timed {
		return o.op.Close()
	}
	before := o.ctx.Meter.Snapshot()
	err := o.op.Close()
	o.prog.AddCost(o.ctx.Meter.Snapshot().Sub(before).Cost())
	if m, ok := o.op.(memReporter); ok {
		o.prog.RecordMem(m.MemUsed())
	}
	return err
}

// flush publishes the batched rows and cost, refreshes the spill
// footprint, and folds this operator's estimate error into the
// query-level overshoot (the live suboptimality signal).
func (o *observedOp) flush() {
	if o.timed {
		o.prog.AddCost(o.cost)
		o.cost = 0
	}
	if o.rows > 0 {
		o.prog.AddRows(o.rows)
		o.rows = 0
	}
	if s, ok := o.op.(spillReporter); ok {
		o.prog.SetSpillBytes(s.SpilledBytes())
	}
	o.ctx.Prog.NoteRatio(o.prog)
}

// Schema implements Operator.
func (o *observedOp) Schema() *types.Schema { return o.op.Schema() }

// Spilled forwards the wrapped operator's spill report so diagnostics
// that look for it keep working under observation.
func (o *observedOp) Spilled() bool {
	if s, ok := o.op.(interface{ Spilled() bool }); ok {
		return s.Spilled()
	}
	return false
}

// MemUsed forwards the wrapped operator's peak memory.
func (o *observedOp) MemUsed() float64 {
	if m, ok := o.op.(memReporter); ok {
		return m.MemUsed()
	}
	return 0
}

// SpilledBytes forwards the wrapped operator's spill footprint.
func (o *observedOp) SpilledBytes() float64 {
	if s, ok := o.op.(spillReporter); ok {
		return s.SpilledBytes()
	}
	return 0
}
