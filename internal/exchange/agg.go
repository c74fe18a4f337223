package exchange

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memmgr"
	"repro/internal/plan"
	"repro/internal/types"
)

// parallelAgg executes an aggregation as a partial/final split: a router
// deals the serial input round-robin to N workers, each running a
// partial aggregation (emitting encoded per-group states) under its
// share of the memory grant; a final aggregation on the consumer's
// goroutine merges the state streams into the real results. The plan
// shape is Exchange(gather){Agg{Exchange(round-robin){input}}}.
//
// Workers get 1/(2N) of the grant each and the final merge gets the
// remaining half: partials see 1/N of the tuples but the final pass can
// hold every distinct group.
type parallelAgg struct {
	x   *plan.Exchange
	agg *plan.Agg
	// left is the serial input stream; nil until Open when built from
	// the plan below the round-robin exchange.
	left exec.Operator
	ctx  *exec.Ctx

	reg      *region
	inQ      []chan []types.Tuple
	stateQ   chan []types.Tuple
	final    exec.Operator
	partials []exec.Operator
	states   stateSlots

	opened    bool
	closed    bool
	finalized bool
}

func newParallelAgg(x *plan.Exchange, agg *plan.Agg, left exec.Operator, ctx *exec.Ctx) *parallelAgg {
	return &parallelAgg{x: x, agg: agg, left: left, ctx: ctx}
}

// Schema implements Operator.
func (a *parallelAgg) Schema() *types.Schema { return a.agg.Schema() }

// Open runs the whole parallel aggregation: routing, partial workers,
// and the blocking final merge. Aggregation is a full barrier in the
// serial engine too (Agg.Open drains its input), so by the time Open
// returns the region is complete and its stats are finalized.
func (a *parallelAgg) Open() error {
	if a.opened {
		return nil
	}
	a.opened = true
	n := degree(a.x)
	a.reg = newRegion(a.ctx.Context)
	a.inQ = makeQueues(n)
	a.stateQ = make(chan []types.Tuple, chanCap)
	a.partials = make([]exec.Operator, n)
	a.states = newStateSlots(n)

	rr, _ := a.agg.Input.(*plan.Exchange)
	if a.left == nil {
		if rr == nil {
			a.reg.cancel()
			return fmt.Errorf("exchange: parallel agg without round-robin input")
		}
		var err error
		a.left, err = exec.Build(rr.Input, a.ctx)
		if err != nil {
			a.reg.cancel()
			return err
		}
	}
	inSchema := a.left.Schema()

	share := memmgr.SplitGrant(2 * n)
	for w := 0; w < n; w++ {
		wc := workerCtx(a.ctx, a.reg, w, n, share)
		wc.StateSink = a.states.sink(w)
		// Partials are not instrumented: their outputs are encoded group
		// states, not result rows, and would inflate the agg node's
		// actual row count. Worker costs reach ANALYZE via the region's
		// per-worker rollup instead.
		a.partials[w] = exec.NewPartialAgg(a.agg, newSource(a.reg, a.inQ[w], inSchema), wc)
	}

	// The final merge runs on the consumer's goroutine and context (its
	// work is the serial tail of the query) with the reserved half of
	// the grant. The Ctx copy must happen before any worker is spawned:
	// the route goroutine drains the serial input against a.ctx and
	// ticks its non-atomic cancellation counter.
	fc := *a.ctx
	fc.GrantShare = 0.5
	fc.StateSink = nil
	a.final = exec.Instrument(exec.NewFinalAgg(a.agg, newSource(a.reg, a.stateQ, inSchema), &fc), a.agg, &fc)

	done := lastOf(n, a.stateQ)
	for w := 0; w < n; w++ {
		op, m := a.partials[w], a.reg.meters[w]
		a.reg.spawn(a.ctx, fmt.Sprintf("agg-worker-%d", w), func() error {
			return runWorker(a.reg, op, m, a.stateQ)
		}, m.Flush, done)
	}
	a.reg.spawn(a.ctx, "agg-route", a.route(n), lastOf(1, a.inQ...))

	if err := a.final.Open(); err != nil {
		return err
	}
	if err := a.reg.peekErr(); err != nil {
		return err
	}
	a.finalized = true
	return finalizeRegion(a.x, a.ctx, a.reg, a.states, a.partials)
}

// route deals input tuples to partial workers in rotation.
func (a *parallelAgg) route(n int) func() error {
	return func() error {
		if err := a.left.Open(); err != nil {
			a.left.Close()
			return err
		}
		box := newOutbox(a.reg, nil, a.inQ...)
		i := 0
		for {
			if err := faultinject.Hit("exchange.route"); err != nil {
				a.left.Close()
				return err
			}
			t, err := a.left.Next()
			if err != nil {
				a.left.Close()
				return err
			}
			if t == nil {
				break
			}
			if !box.put(i%n, t) {
				a.left.Close()
				return a.reg.cause()
			}
			i++
		}
		return box.finish(a.left)
	}
}

// Next implements Operator: results stream from the final merge.
func (a *parallelAgg) Next() (types.Tuple, error) {
	if !a.opened || a.final == nil {
		return nil, nil
	}
	return a.final.Next()
}

// Close implements Operator.
func (a *parallelAgg) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.reg.close()
	var err error
	if a.final != nil {
		err = a.final.Close()
	}
	for _, op := range a.partials {
		if op != nil {
			op.Close()
		}
	}
	if a.left != nil {
		a.left.Close()
	}
	a.reg.traceClosed(a.ctx, "agg")
	return err
}
