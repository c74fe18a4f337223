package exchange

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// gather executes a leaf plan segment (scan plus wrappers — no blocking
// join anchor) once per worker, each worker's sequential scan reading
// only its page partition, and merges the partition streams into one
// serial output. Collector states from worker pipelines are buffered and
// merged into a single report when the last worker finishes, so the
// consumer-side dispatcher sees exactly one Observed per collector — the
// same contract as serial execution.
type gather struct {
	x   *plan.Exchange
	ctx *exec.Ctx

	reg     *region
	out     inbox
	workers []exec.Operator
	states  stateSlots

	opened    bool
	closed    bool
	finalized bool
}

func newGather(x *plan.Exchange, ctx *exec.Ctx) *gather {
	return &gather{x: x, ctx: ctx}
}

// Schema implements Operator.
func (g *gather) Schema() *types.Schema { return g.x.Schema() }

// Open builds one copy of the segment pipeline per worker — each against
// its own partition context — and starts them. Leaf segments have no
// blocking phase, so Open returns as soon as the workers are launched.
func (g *gather) Open() error {
	if g.opened {
		return nil
	}
	g.opened = true
	n := degree(g.x)
	g.reg = newRegion(g.ctx.Context)
	g.out = inbox{r: g.reg, q: make(chan []types.Tuple, chanCap)}
	g.workers = make([]exec.Operator, n)
	g.states = newStateSlots(n)
	for w := 0; w < n; w++ {
		wc := workerCtx(g.ctx, g.reg, w, n, 0)
		wc.StateSink = g.states.sink(w)
		op, err := exec.Build(g.x.Input, wc)
		if err != nil {
			g.reg.fail(err)
			return err
		}
		g.workers[w] = op
	}
	done := lastOf(n, g.out.q)
	for w := 0; w < n; w++ {
		op, m := g.workers[w], g.reg.meters[w]
		g.reg.spawn(g.ctx, fmt.Sprintf("scan-worker-%d", w), func() error {
			return runWorker(g.reg, op, m, g.out.q)
		}, m.Flush, done)
	}
	return nil
}

// Next implements Operator: it merges worker outputs (arrival order) and
// finalizes the region — merged stats report, wall savings — when the
// last worker closes the stream.
func (g *gather) Next() (types.Tuple, error) {
	if g.finalized || !g.opened {
		return nil, nil
	}
	if t, err := g.out.next(); t != nil || err != nil {
		return t, err
	}
	// Queue closed: every worker has exited and recorded any error.
	if err := g.reg.peekErr(); err != nil {
		return nil, err
	}
	g.finalized = true
	if err := finalizeRegion(g.x, g.ctx, g.reg, g.states, nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// Close implements Operator: cancel the region, join its goroutines, and
// close worker pipelines that never ran (runWorker closes the ones that
// did; Close is idempotent, so the backstop sweep is safe).
func (g *gather) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.reg.close()
	for _, op := range g.workers {
		if op != nil {
			op.Close()
		}
	}
	g.reg.traceClosed(g.ctx, "gather")
	return nil
}
