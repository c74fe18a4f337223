// Package exchange implements intra-query parallelism: a Volcano-style
// gather splits a plan segment across N worker goroutines, routing
// tuples to them by a hash join's keys or in rotation, and merges the
// partition streams — and their statistics-collector states — back into
// one serial stream at the segment boundary.
//
// Gather points coincide with the re-optimizer's checkpoint boundaries,
// so everything the paper's machinery consumes — collector reports for
// the Eq. 1/2 checkpoint inequalities, SCIA-placed collectors, memory
// grants, plan switches — works unchanged on parallel plans: between
// segments the tuple stream is serial, and each gather emits exactly the
// merged report a serial collector would have produced.
package exchange

import (
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
)

// init installs the exchange runtime into the executor. exec cannot
// import this package (exchange assembles worker pipelines out of exec's
// operators), so the executor dispatches plan.Exchange nodes through a
// hook variable instead.
func init() {
	exec.ExchangeBuilder = buildExchange
}

// buildExchange instantiates the stage for a gather. left, when
// non-nil, is the already-built serial input stream (the dispatcher's
// step-wise build path); nil means build the whole subtree from the plan.
func buildExchange(x *plan.Exchange, left exec.Operator, ctx *exec.Ctx) (exec.Operator, error) {
	s := &stage{x: x, ctx: ctx, left: left}
	if agg, ok := x.Input.(*plan.Agg); ok {
		s.agg = agg
		return finalMerge(s), nil
	}
	if s.wrappers, s.join = splitSegment(x.Input); s.join == nil && left != nil {
		// A gather over an already-built serial stream has nothing to
		// parallelize; pass it through.
		return left, nil
	}
	return s, nil
}

// splitSegment peels the wrapper nodes (collectors, residual filters)
// off a gather's subtree down to the hash join that anchors the step.
// Wrappers are returned bottom-up — the order they are applied over the
// join operator. A segment not anchored by a hash join returns nil.
func splitSegment(n plan.Node) ([]plan.Node, *plan.HashJoin) {
	var wrappers []plan.Node
	for {
		switch w := n.(type) {
		case *plan.Collector:
			wrappers = append(wrappers, w)
			n = w.Input
		case *plan.Filter:
			wrappers = append(wrappers, w)
			n = w.Input
		case *plan.HashJoin:
			for i, j := 0, len(wrappers)-1; i < j; i, j = i+1, j-1 {
				wrappers[i], wrappers[j] = wrappers[j], wrappers[i]
			}
			return wrappers, w
		default:
			return nil, nil
		}
	}
}

// stateSlots is the per-worker collector-state buffer of one region.
// Each worker appends to its own slot from its own goroutine; the
// consumer reads all slots at finalize, after the region's goroutines
// have been joined (WaitGroup edges make this race-free).
type stateSlots [][]*exec.CollectorState

func newStateSlots(n int) stateSlots { return make(stateSlots, n) }

// sink returns the StateSink for worker slot w.
func (s stateSlots) sink(w int) func(*exec.CollectorState) {
	return func(st *exec.CollectorState) { s[w] = append(s[w], st) }
}

// finalizeRegion completes a gather: merge per-worker collector states
// into single reports (worker-index order, so merged histograms and
// samples are deterministic), deliver them to the consumer's stats sink,
// and, when the query is timed for EXPLAIN ANALYZE, roll worker costs and
// memory into the gather's record. It runs on the consumer's goroutine
// after every region goroutine has exited.
func finalizeRegion(x *plan.Exchange, ctx *exec.Ctx, r *region, states stateSlots, pipes []pipeline) error {
	if err := faultinject.Hit("exchange.gather"); err != nil {
		return err
	}
	merged := map[int]*exec.CollectorState{}
	var order []int
	for _, ws := range states {
		for _, st := range ws {
			if m, ok := merged[st.ID]; ok {
				m.Merge(st)
			} else {
				merged[st.ID] = st
				order = append(order, st.ID)
			}
		}
	}
	for _, id := range order {
		o := merged[id].Observed()
		if ctx.Trace.Enabled() {
			ctx.Trace.Emit("collector", "merged parallel collector report",
				"collector_id", id, "partitions", len(states),
				"actual_rows", o.Rows, "bytes", o.Bytes)
		}
		if ctx.StatsSink != nil {
			ctx.StatsSink(o)
		}
	}
	if ctx.Prog.Timed() {
		acc := ctx.Prog.Op(x)
		for i, m := range r.meters {
			mem := 0.0
			if i < len(pipes) {
				if mr, ok := pipes[i].mem.(interface{ MemUsed() float64 }); ok {
					mem = mr.MemUsed()
				}
			}
			acc.RecordWorker(m.Snapshot().Cost(), mem)
		}
	}
	return nil
}

// degree returns the usable worker count for an exchange node.
func degree(x *plan.Exchange) int {
	if x.Degree < 1 {
		return 1
	}
	return x.Degree
}
