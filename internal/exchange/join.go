package exchange

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memmgr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// parallelJoin executes one hash-join step — the join plus its wrapper
// nodes (statistics collectors, residual filters) — across N workers.
//
// Build phase (Open): a router goroutine drains the serial build input
// (the previous segment's gathered stream) and deals tuples to workers
// by hash of the build keys; each worker runs a real hash join over its
// partition under 1/N of the node's memory grant. Open returns once
// every worker's build is complete, which puts the dispatcher at the
// paper's decision point: build done, probe not started.
//
// Probe phase (first Next): N probe producers each scan their page
// partition of the probe side and route tuples by hash of the probe
// keys to the matching join worker; join outputs (already filtered and
// observed by the per-worker wrapper pipeline) are gathered into one
// serial stream. When the stream drains, per-worker collector states
// merge into single reports and the region's wall savings are recorded.
type parallelJoin struct {
	x        *plan.Exchange
	join     *plan.HashJoin
	wrappers []plan.Node // bottom-up, applied over each worker's join
	left     exec.Operator
	ctx      *exec.Ctx

	reg     *region
	out     inbox
	buildQ  []chan []types.Tuple
	probeQ  []chan []types.Tuple
	tops    []exec.Operator // per-worker wrapped pipelines
	joins   []exec.Operator // per-worker join ops (memory reporting)
	states  stateSlots
	probeOp []exec.Operator
	probeGo chan struct{}

	opened       bool
	probeStarted bool
	finalized    bool
	closed       bool
}

func newParallelJoin(x *plan.Exchange, join *plan.HashJoin, wrappers []plan.Node, left exec.Operator, ctx *exec.Ctx) *parallelJoin {
	return &parallelJoin{x: x, join: join, wrappers: wrappers, left: left, ctx: ctx}
}

// Schema implements Operator.
func (j *parallelJoin) Schema() *types.Schema { return j.x.Schema() }

// Open runs the parallel build phase to completion.
func (j *parallelJoin) Open() error {
	if j.opened {
		return nil
	}
	j.opened = true
	n := degree(j.x)
	j.reg = newRegion(j.ctx.Context)
	j.out = inbox{r: j.reg, q: make(chan []types.Tuple, chanCap)}
	j.buildQ = makeQueues(n)
	j.probeQ = makeQueues(n)
	j.probeGo = make(chan struct{})
	j.tops = make([]exec.Operator, n)
	j.joins = make([]exec.Operator, n)
	j.states = newStateSlots(2 * n)
	j.probeOp = make([]exec.Operator, n)

	if j.left == nil {
		// Whole-tree build path (no dispatcher step-wise assembly): the
		// serial build input is the segment below, built against the
		// consumer context.
		var err error
		j.left, err = exec.Build(plan.StripPartition(j.join.Build), j.ctx)
		if err != nil {
			j.reg.fail(err)
			return err
		}
	}

	share := memmgr.SplitGrant(n)
	for w := 0; w < n; w++ {
		wc := workerCtx(j.ctx, j.reg, w, n, share)
		wc.StateSink = j.states.sink(w)
		var op exec.Operator = exec.NewHashJoin(j.join,
			newSource(j.reg, j.buildQ[w], j.join.Build.Schema()),
			newSource(j.reg, j.probeQ[w], j.join.Probe.Schema()), wc)
		op = exec.Instrument(op, j.join, wc)
		j.joins[w] = op
		for _, wr := range j.wrappers {
			var err error
			op, err = exec.BuildStep(wr, op, wc)
			if err != nil {
				j.reg.fail(err)
				return err
			}
		}
		j.tops[w] = op
	}

	// buildWG gates Open's return: the router plus every worker's build.
	var buildWG sync.WaitGroup
	buildWG.Add(n + 1)
	j.reg.spawn(j.ctx, "build-route", j.routeBuild(n), lastOf(1, j.buildQ...), buildWG.Done)
	emitted := lastOf(n, j.out.q)
	for w := 0; w < n; w++ {
		j.reg.spawn(j.ctx, fmt.Sprintf("join-worker-%d", w), j.joinWorker(w, &buildWG), j.reg.meters[w].Flush, emitted)
	}
	buildWG.Wait()
	return j.reg.peekErr()
}

// routeBuild drains the serial build input, dealing tuples to workers by
// build-key hash. It owns the input operator's lifecycle.
func (j *parallelJoin) routeBuild(n int) func() error {
	return func() error {
		if err := j.left.Open(); err != nil {
			j.left.Close()
			return err
		}
		box := newOutbox(j.reg, nil, j.buildQ...)
		for {
			if err := faultinject.Hit("exchange.route"); err != nil {
				j.left.Close()
				return err
			}
			t, err := j.left.Next()
			if err != nil {
				j.left.Close()
				return err
			}
			if t == nil {
				break
			}
			w := int(hashTuple(t, j.join.BuildKeys) % uint64(n))
			if !box.put(w, t) {
				j.left.Close()
				return j.reg.cause()
			}
		}
		return box.finish(j.left)
	}
}

// joinWorker runs one worker's pipeline: open (drains its build
// partition), signal build completion, wait for the probe gate, then
// stream join outputs into the gather queue. Errors during build are
// recorded, and the build's charges flushed to the query meter, before
// buildWG is released: Open's caller is at a checkpoint and reads both.
func (j *parallelJoin) joinWorker(w int, buildWG *sync.WaitGroup) func() error {
	op, m := j.tops[w], j.reg.meters[w]
	return func() error {
		err := faultinject.Hit("exchange.worker")
		if err == nil {
			err = op.Open()
		}
		m.Flush()
		if err != nil {
			j.reg.fail(err)
			buildWG.Done()
			op.Close()
			return nil
		}
		buildWG.Done()
		select {
		case <-j.probeGo:
		case <-j.reg.ctx.Done():
			op.Close()
			return j.reg.cause()
		}
		return forward(j.reg, op, m, j.out.q)
	}
}

// startProbe launches the probe-side producers and opens the gate the
// join workers are waiting behind. Until this runs — i.e. until the
// consumer's first Next — the step sits at the paper's mid-query
// decision point with the probe untouched.
func (j *parallelJoin) startProbe() error {
	j.probeStarted = true
	n := len(j.tops)
	probePlan := plan.StripPartition(j.join.Probe)
	for p := 0; p < n; p++ {
		pc := workerCtx(j.ctx, j.reg, p, n, 0)
		pc.StateSink = j.states.sink(n + p)
		op, err := exec.Build(probePlan, pc)
		if err != nil {
			j.reg.fail(err)
			return err
		}
		j.probeOp[p] = op
	}
	routed := lastOf(n, j.probeQ...)
	for p := 0; p < n; p++ {
		m := j.reg.meters[n+p]
		j.reg.spawn(j.ctx, fmt.Sprintf("probe-route-%d", p), j.probeWorker(j.probeOp[p], m, n), m.Flush, routed)
	}
	close(j.probeGo)
	return nil
}

// probeWorker scans one page partition of the probe side and routes its
// tuples to join workers by probe-key hash.
func (j *parallelJoin) probeWorker(op exec.Operator, m *storage.CostMeter, n int) func() error {
	return func() error {
		if err := faultinject.Hit("exchange.worker"); err != nil {
			op.Close()
			return err
		}
		if err := op.Open(); err != nil {
			op.Close()
			return err
		}
		box := newOutbox(j.reg, m, j.probeQ...)
		for {
			t, err := op.Next()
			if err != nil {
				op.Close()
				return err
			}
			if t == nil {
				break
			}
			if err := faultinject.Hit("exchange.route"); err != nil {
				op.Close()
				return err
			}
			w := int(hashTuple(t, j.join.ProbeKeys) % uint64(n))
			if !box.put(w, t) {
				op.Close()
				return j.reg.cause()
			}
		}
		return box.finish(op)
	}
}

// Next implements Operator: the first call starts the probe phase; the
// stream then merges worker outputs until every worker is done, at which
// point the region finalizes (merged collector reports, wall savings).
func (j *parallelJoin) Next() (types.Tuple, error) {
	if j.finalized || !j.opened {
		return nil, nil
	}
	if !j.probeStarted {
		if err := j.startProbe(); err != nil {
			return nil, err
		}
	}
	if t, err := j.out.next(); t != nil || err != nil {
		return t, err
	}
	if err := j.reg.peekErr(); err != nil {
		return nil, err
	}
	j.finalized = true
	if err := finalizeRegion(j.x, j.ctx, j.reg, j.states, j.joins); err != nil {
		return nil, err
	}
	return nil, nil
}

// Close implements Operator: cancel the region, join every goroutine,
// then sweep operator Closes (idempotent) so pipelines that never ran —
// e.g. a plan switch abandoned the step before its probe — still drop
// their spill partitions.
func (j *parallelJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.reg.close()
	for _, op := range j.tops {
		if op != nil {
			op.Close()
		}
	}
	for _, op := range j.probeOp {
		if op != nil {
			op.Close()
		}
	}
	if j.left != nil {
		j.left.Close()
	}
	j.reg.traceClosed(j.ctx, "join")
	return nil
}
