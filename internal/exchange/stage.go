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

// pipeline is one operator tree run by one goroutine of a region. m is
// the tributary meter of the worker context the tree was built against
// (nil for a serial input built against the consumer's own context); mem
// is the operator inside it whose memory EXPLAIN ANALYZE reports for the
// worker, if any.
type pipeline struct {
	op  exec.Operator
	mem exec.Operator
	m   *storage.CostMeter
}

// router deals the tuples of its producers to one queue per pipeline: by
// hash of keys, or in rotation when there are none. lent says whether the
// queues' readers lend (a join's probe, a partial aggregate) or keep (a
// join's build). The zero router has no producers and starts nothing.
type router struct {
	label string
	from  []pipeline
	to    []chan *chunk
	keys  []int
	lent  bool
}

// stage executes one parallel region — the segment under a gather —
// and is the only operator in this package: N pipelines whose outputs
// are gathered, in arrival order, into one serial stream, fed by up to
// two routers. The early router runs from Open, the late one from the
// first Next. The three segments Parallelize emits differ only in what
// assemble builds:
//
//   - leaf (scan plus wrappers): N copies of the segment, each scan
//     reading its page partition; no router.
//   - hash-join step (the join plus its wrapper collectors and filters):
//     N hash joins over queue pairs, each under 1/N of the node's grant;
//     the early router deals the serial build input by build-key hash,
//     the late one has N page-partitioned probe scans as producers and
//     deals by probe-key hash.
//   - aggregation: N partial aggregations at 1/(2N) of the grant each,
//     the serial input dealt to them in rotation by the early router;
//     the serial final merge reads the stage (finalMerge).
//
// Open returns when every pipeline's Open has: for a join that is the
// paper's decision point — every build partition is hashed, and the
// probe scans exist but nothing runs them. A pipeline needs no gate to
// hold it there: its first Next waits on a probe queue that nothing
// feeds before the late router starts.
//
// Collector states from the workers are buffered per worker and merged
// into one report per collector when the stream ends, so the consumer
// sees exactly one Observed per collector, as in serial execution.
//
// Which queues lend is fixed as the stage assembles: the probe router's
// and the aggregation router's, whose readers keep nothing; the gather's
// own, if the stage's consumer lent it before Open; never the build
// router's. A producer to a lent queue lends its own input, and copies
// what it sends into the chunks' blocks if that input recycles.
type stage struct {
	x    *plan.Exchange
	ctx  *exec.Ctx
	left exec.Operator // the already-built serial input, if any
	lent bool          // the consumer keeps no tuple past its next Next

	// What anchors the segment: join (with the wrappers applied over each
	// worker's join, bottom-up), agg, or neither for a leaf.
	join     *plan.HashJoin
	wrappers []plan.Node
	agg      *plan.Agg

	reg         *region
	out         inbox
	pipes       []pipeline
	early, late router
	states      stateSlots
	ready       sync.WaitGroup // counts down as the pipelines' Opens return

	opened    bool
	started   bool // the late router was started, or never will be
	finalized bool
	closed    bool
}

// kind names the region in worker labels and in the trace.
func (s *stage) kind() string {
	switch {
	case s.join != nil:
		return "join"
	case s.agg != nil:
		return "agg"
	}
	return "gather"
}

// Schema implements Operator.
func (s *stage) Schema() *types.Schema { return s.x.Schema() }

// Lend is exec.Lend's hook: before Open it makes the gather's own queue a
// lent one. It reports whether the stage honours that, which only a leaf
// does — its pipelines are scans — and then its workers copy each tuple
// into the chunk it travels in. A join's or an aggregation's pipelines
// mint tuples nobody reuses.
func (s *stage) Lend() bool {
	if s.opened || s.join != nil || s.agg != nil {
		return false
	}
	s.lent = true
	return true
}

// Open assembles the region on the consumer's goroutine, starts the
// pipelines and the early router, and waits until every pipeline's Open
// has returned with its error recorded and its charges on the query
// meter: the caller may be at a checkpoint and reads both.
func (s *stage) Open() error {
	if s.opened {
		return s.reg.peekErr()
	}
	s.opened = true
	n := degree(s.x)
	s.reg = newRegion(s.ctx.Context)
	s.out = inbox{r: s.reg, q: make(chan *chunk, chanCap), lent: s.lent}
	s.pipes = make([]pipeline, n)
	if err := s.assemble(n); err != nil {
		s.reg.fail(err)
		return err
	}
	s.ready.Add(n)
	kind, done := s.kind(), lastOf(n, s.out.q)
	for w, p := range s.pipes {
		label := fmt.Sprintf("%s-worker-%d", kind, w)
		s.reg.spawn(s.ctx, label, func() error {
			return s.work(label, p)
		}, done)
	}
	s.start(&s.early)
	s.ready.Wait()
	// Every pipeline has read its early queue to the end, so the early
	// router is done with the serial input and with the consumer's
	// context — unless the region failed, and then it is over: wait it
	// out, for the same reason.
	err := s.reg.peekErr()
	if err != nil {
		s.reg.close()
		s.out.q = nil // Next finds the error, not what was sent ahead of it
	}
	return err
}

// assemble builds the region's pipelines and routers. Every operator is
// stored as soon as it exists, so Close sweeps what a failed assembly
// built.
func (s *stage) assemble(n int) error {
	switch {
	case s.join != nil:
		return s.assembleJoin(n)
	case s.agg != nil:
		return s.assembleAgg(n)
	}
	s.states = newStateSlots(n)
	for w := range s.pipes {
		wc := s.workerCtx(w, w, 0)
		op, err := exec.Build(s.x.Input, wc)
		if err != nil {
			return err
		}
		s.pipes[w] = pipeline{op: op, m: wc.Meter}
	}
	return nil
}

func (s *stage) assembleJoin(n int) error {
	if err := s.serialInput("build-route", s.join.Build, n, s.join.BuildKeys, false); err != nil {
		return err
	}
	s.late = router{label: "probe-route", from: make([]pipeline, n), to: makeQueues(n), keys: s.join.ProbeKeys, lent: true}
	s.states = newStateSlots(2 * n)
	share := memmgr.SplitGrant(n)
	for w := range s.pipes {
		wc := s.workerCtx(w, w, share)
		join := exec.Instrument(exec.NewHashJoin(s.join,
			newSource(s.reg, s.early.to[w], s.early.lent, s.join.Build.Schema()),
			newSource(s.reg, s.late.to[w], s.late.lent, s.join.Probe.Schema()), wc), s.join, wc)
		s.pipes[w] = pipeline{op: join, mem: join, m: wc.Meter}
		for _, wr := range s.wrappers {
			op, err := exec.BuildStep(wr, s.pipes[w].op, wc)
			if err != nil {
				return err
			}
			s.pipes[w].op = op
		}
	}
	for p := range s.late.from {
		pc := s.workerCtx(p, n+p, 0)
		op, err := exec.Build(s.join.Probe, pc)
		if err != nil {
			return err
		}
		s.late.from[p] = pipeline{op: op, m: pc.Meter}
	}
	return nil
}

// assembleAgg does not instrument the partials: their outputs are
// encoded group states, not result rows, and would inflate the agg
// node's actual row count. Worker costs reach ANALYZE through the
// region's per-worker rollup instead.
func (s *stage) assembleAgg(n int) error {
	if err := s.serialInput("agg-route", s.agg.Input, n, nil, true); err != nil {
		return err
	}
	s.states = newStateSlots(n)
	in := s.early.from[0].op.Schema()
	share := memmgr.SplitGrant(2 * n)
	for w := range s.pipes {
		wc := s.workerCtx(w, w, share)
		op := exec.NewPartialAgg(s.agg, newSource(s.reg, s.early.to[w], s.early.lent, in), wc)
		s.pipes[w] = pipeline{op: op, mem: op, m: wc.Meter}
	}
	return nil
}

// serialInput makes the early router over the region's serial input:
// the stream the dispatcher built, else the plan below built against
// the consumer's context. The router's goroutine is then the only user
// of that context until Open returns.
func (s *stage) serialInput(label string, below plan.Node, n int, keys []int, lent bool) error {
	left := s.left
	if left == nil {
		var err error
		if left, err = exec.Build(below, s.ctx); err != nil {
			return err
		}
	}
	s.early = router{label: label, from: []pipeline{{op: left}}, to: makeQueues(n), keys: keys, lent: lent}
	return nil
}

// workerCtx derives the context of partition part of the region, whose
// collector states go to the given slot.
func (s *stage) workerCtx(part, slot int, share float64) *exec.Ctx {
	wc := workerCtx(s.ctx, s.reg, part, len(s.pipes), share)
	wc.StateSink = s.states.sink(slot)
	return wc
}

// work runs one pipeline: open it and stream it into the gather queue.
func (s *stage) work(label string, p pipeline) error {
	copies := s.lent && exec.Lend(p.op)
	if err := s.open(label, p); err != nil {
		return closing(p.op, err)
	}
	return forward(s.reg, p, newOutbox(s.reg, p.m, copies, s.out.q))
}

// open opens one pipeline and reports that to Open on every path, a
// panic included: the error recorded and the charges flushed first.
func (s *stage) open(label string, p pipeline) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicErr(label, v)
		}
		p.m.Flush()
		s.reg.fail(err)
		s.ready.Done()
	}()
	if err = faultinject.Hit("exchange.worker"); err != nil {
		return err
	}
	return p.op.Open()
}

// forward streams an opened pipeline into box's one queue, a chunk at a
// time, and closes the pipeline on every path.
func forward(r *region, p pipeline, box *outbox) error {
	for {
		t, err := p.op.Next()
		if err != nil {
			return closing(p.op, err)
		}
		if t == nil {
			return box.finish(p.op)
		}
		if !box.put(0, t) {
			return closing(p.op, r.cause())
		}
	}
}

// start spawns a router's producers; the last of them to finish closes
// the router's queues.
func (s *stage) start(rt *router) {
	if len(rt.from) == 0 {
		return
	}
	done := lastOf(len(rt.from), rt.to...)
	for i, p := range rt.from {
		s.reg.spawn(s.ctx, fmt.Sprintf("%s-%d", rt.label, i), func() error {
			return s.route(rt, p)
		}, done)
	}
}

// route runs one producer of a router to the end of its stream, dealing
// its tuples to the router's queues, and closes it on every path.
func (s *stage) route(rt *router, p pipeline) error {
	if err := faultinject.Hit("exchange.worker"); err != nil {
		return closing(p.op, err)
	}
	copies := rt.lent && exec.Lend(p.op)
	if err := p.op.Open(); err != nil {
		return closing(p.op, err)
	}
	box := newOutbox(s.reg, p.m, copies, rt.to...)
	n := uint64(len(rt.to))
	for i := uint64(0); ; i++ {
		t, err := p.op.Next()
		if err != nil {
			return closing(p.op, err)
		}
		if t == nil {
			return box.finish(p.op)
		}
		if err := faultinject.Hit("exchange.route"); err != nil {
			return closing(p.op, err)
		}
		w := i
		if rt.keys != nil {
			w = exec.HashKeys(t, rt.keys)
		}
		if !box.put(int(w%n), t) {
			return closing(p.op, s.reg.cause())
		}
	}
}

// closing closes op on an error path and returns the error.
func closing(op exec.Operator, err error) error {
	op.Close()
	return err
}

// Next implements Operator. The first call starts the late router; the
// stream then merges the pipelines' outputs in arrival order, and when
// the last of them has closed it the region finalizes: merged collector
// reports, wall savings.
func (s *stage) Next() (types.Tuple, error) {
	if s.finalized || !s.opened {
		return nil, nil
	}
	if !s.started {
		s.started = true
		// A region that has already ended — a failed Open, which may
		// have left the router half built — starts nothing.
		if s.reg.cause() == nil {
			s.start(&s.late)
		}
	}
	if t, err := s.out.next(); t != nil || err != nil {
		return t, err
	}
	// Queue closed: every pipeline has exited and recorded any error.
	if err := s.reg.peekErr(); err != nil {
		return nil, err
	}
	s.finalized = true
	return nil, finalizeRegion(s.x, s.ctx, s.reg, s.states, s.pipes)
}

// Close implements Operator: cancel the region, join its goroutines,
// then sweep every pipeline and producer. The goroutines close what they
// ran; the sweep (Close is idempotent) reaches what never ran — probe
// scans of a step a plan switch abandoned at its decision point, the
// remains of a failed assembly, the dispatcher's input to a stage never
// opened — so spill partitions are always dropped.
func (s *stage) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.reg.close()
	if !s.opened && s.left != nil {
		s.left.Close() // no router took it over
	}
	for _, ps := range [...][]pipeline{s.pipes, s.early.from, s.late.from} {
		for _, p := range ps {
			if p.op != nil {
				p.op.Close()
			}
		}
	}
	s.reg.traceClosed(s.ctx, s.kind())
	return nil
}

// finalMerge puts the serial half of a parallel aggregation over its
// stage. It runs on the consumer's goroutine, as the serial tail of the
// query, with the half of the grant the partials leave: they see 1/N of
// the tuples each, but the final pass can hold every distinct group. It
// works on a copy of the context because the stage's router drains the
// serial input against the original.
func finalMerge(s *stage) exec.Operator {
	fc := *s.ctx
	fc.GrantShare = 0.5
	return exec.Instrument(exec.NewFinalAgg(s.agg, s, &fc), s.agg, &fc)
}
