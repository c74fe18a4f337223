package reopt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memmgr"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// dispatchRun is the state one dispatch of one plan carries from
// checkpoint to checkpoint: the plan and its decomposition, the
// baselines Equations 1 and 2 measure against, and the query-wide
// bindings, context and stats. A plan switch starts a fresh dispatchRun
// for the remainder plan.
type dispatchRun struct {
	*Dispatcher
	res *optimizer.Result
	dec *decomposed
	// collectors indexes the plan's statistics collectors by ID, to
	// match a report to the node that produced it.
	collectors map[int]*plan.Collector
	// filtered lists the collectors right under a residual filter: each
	// counts its join's rows before the filter, no relation set's rows.
	filtered []*plan.Collector
	// origTotal is the optimizer's promise for this plan; startSnap the
	// meter when the dispatch began (elapsed = meter − startSnap).
	origTotal float64
	startSnap storage.Snapshot

	params plan.Params
	ctx    *exec.Ctx
	st     *Stats
}

// dispatch arms an optimized plan and executes it segment by segment,
// in every mode: a segment boundary is where a query can be cancelled,
// preempted or fault-injected, whether or not a checkpoint fires there.
// After each hash-join build phase completes — the paper's decision
// point, where "the build phase of the hash-join is complete but the
// probe phase has not yet started" (§2.4) — freshly-delivered collector
// reports drive memory re-allocation and, if Equations 1 and 2 warrant
// it, a plan switch via materialization. A non-nil leafOverride is a
// live operator stream standing in for the plan's leftmost scan — the
// splice of Figure 5, where the new remainder plan consumes the running
// join's output directly.
func (d *Dispatcher) dispatch(res *optimizer.Result, params plan.Params, ctx *exec.Ctx, st *Stats, leafOverride exec.Operator) ([]types.Tuple, error) {
	if err := d.arm(res, st, ctx); err != nil {
		return nil, err
	}
	dec, err := decompose(res.Root)
	if err != nil {
		return nil, err
	}
	r := &dispatchRun{
		Dispatcher: d,
		res:        res,
		dec:        dec,
		collectors: map[int]*plan.Collector{},
		origTotal:  res.Root.Est().Cost,
		startSnap:  ctx.Meter.Snapshot(),
		params:     params,
		ctx:        ctx,
		st:         st,
	}
	plan.Walk(res.Root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Collector:
			r.collectors[x.ID] = x
		case *plan.Filter:
			if c, ok := x.Input.(*plan.Collector); ok {
				r.filtered = append(r.filtered, c)
			}
		}
	})

	// Intercept this plan's collector reports for the duration of this
	// dispatch. A spliced leaf stream still holds the collector the
	// previous plan put on the running join's output; its report reaches
	// no checkpoint of this plan and is dropped.
	var pending []*plan.Observed
	oldSink := ctx.StatsSink
	ctx.StatsSink = func(o *plan.Observed) {
		if r.collectors[o.CollectorID] == nil {
			return
		}
		pending = append(pending, o)
		st.Observations++
	}
	defer func() { ctx.StatsSink = oldSink }()

	cur, err := d.buildLeafOp(dec, ctx, leafOverride)
	if err != nil {
		return nil, err
	}
	// live tracks the topmost constructed operator. Closes cascade, so
	// aborting between segments only needs one Close to release every
	// descendant's side state (spill partitions, sort runs, the spliced
	// stream from an enclosing dispatch).
	live := cur
	// opened is what the joins' Opens below have cost so far: every
	// operator stacked over them takes it, as if opened from the root.
	var opened float64
	abort := func(err error) ([]types.Tuple, error) {
		live.Close()
		if d.Cfg.Trace.Enabled() && ctx.Err() != nil {
			d.Cfg.Trace.Emit("cancel", "query aborted mid-dispatch", "err", err.Error())
		}
		return nil, err
	}
	// Checkpoint preemption: a higher-priority waiter claimed this
	// query's lease, and a segment boundary is the one place the
	// remainder is cleanly restartable — the session releases the lease
	// and re-admits the query.
	preempted := func(step int) bool {
		l := d.Cfg.Lease
		if l == nil || !l.PreemptRequested() {
			return false
		}
		if d.Cfg.Trace.Enabled() {
			d.Cfg.Trace.Emit("preempt", "lease preempted at checkpoint", "step", step)
		}
		return true
	}
	for i := range dec.steps {
		// The paper's checkpoints double as the dispatcher's abort
		// points: between segments the query is at a well-defined state.
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		if preempted(i) {
			return abort(memmgr.ErrPreempted)
		}
		if err := faultinject.Hit("reopt.step"); err != nil {
			return abort(err)
		}
		step := dec.steps[i]
		first, wrappers := step.join, step.wrappers
		px, isGather := step.top().(*plan.Exchange)
		_, isHash := step.join.(*plan.HashJoin)
		if isGather && isHash {
			// Parallel step: the gather builds the whole segment — N
			// partitioned hash joins plus per-worker wrapper pipelines —
			// as one operator consuming the serial stream below. Open runs
			// the parallel build phase; the probe waits for the first
			// Next, so the decision point is unchanged.
			first, wrappers = px, nil
		}
		joinOp, err := exec.BuildStep(first, cur, ctx)
		if err != nil {
			return abort(err)
		}
		exec.CreditOpen(joinOp, opened)
		live = joinOp
		// Run this join's build phase (for index joins this is free and
		// no statistics can have completed).
		before := ctx.Meter.Snapshot()
		if err := joinOp.Open(); err != nil {
			return abort(err)
		}
		opened += ctx.Meter.Snapshot().Sub(before).Cost()
		topOp := joinOp
		for _, w := range wrappers {
			wrapped, err := exec.BuildStep(w, topOp, ctx)
			if err != nil {
				return abort(err)
			}
			exec.CreditOpen(wrapped, opened)
			topOp = wrapped
			live = topOp
		}
		if len(pending) > 0 {
			obs := pending[len(pending)-1] // latest = closest to this join
			pending = nil
			rec, err := r.checkpoint(i, obs)
			if err != nil {
				return abort(err)
			}
			if rec.Switched() {
				rows, serr := r.switchPlan(i, obs, topOp, rec)
				if serr != nil {
					// A failed switch may bail out before anything has
					// consumed (and closed) the running join; Close is
					// idempotent, so sweeping it here is safe even on
					// paths that already did.
					topOp.Close()
				}
				return rows, serr
			}
		}
		cur = topOp
	}

	// The boundary between the join chain and the top operators is the
	// final checkpoint-shaped abort point (for a zero- or one-join plan
	// it is the only one); past here the query runs to completion.
	if preempted(len(dec.steps)) {
		return abort(memmgr.ErrPreempted)
	}
	top := cur
	for k := len(dec.tops) - 1; k >= 0; k-- {
		wrapped, err := exec.BuildStep(dec.tops[k], top, ctx)
		if err != nil {
			return abort(err)
		}
		exec.CreditOpen(wrapped, opened)
		top = wrapped
		live = top
	}
	// Collect closes the chain itself, error or not; abort's second
	// Close is a no-op.
	rows, err := exec.Collect(top)
	if err != nil {
		return abort(err)
	}
	return rows, nil
}

// buildLeafOp builds the operator for the leftmost pipeline. With an
// override, the pipeline's scan is replaced by the live stream —
// narrowed to the columns the scan would have emitted, which is what
// every ordinal above it was resolved against — and any wrappers
// (collectors) above it are applied on top.
func (d *Dispatcher) buildLeafOp(dec *decomposed, ctx *exec.Ctx, override exec.Operator) (exec.Operator, error) {
	if override == nil {
		return exec.Build(dec.leafTop, ctx)
	}
	// Collect the wrappers between leafTop and the scan, top-down.
	var wrappers []plan.Node
	cur := dec.leafTop
	for {
		switch x := cur.(type) {
		case *plan.Collector, *plan.Filter:
			wrappers = append(wrappers, x)
			cur = x.Children()[0]
		case *plan.Exchange:
			// The live stream replacing the scan is already serial; a
			// gather over it is meaningless, so it is skipped rather
			// than applied.
			cur = x.Input
		case *plan.Scan:
			op := override
			if x.Cols != nil {
				exprs := make([]plan.Expr, len(x.Cols))
				for k, c := range x.Cols {
					exprs[k] = &plan.ColExpr{Idx: c, Col: x.Out.Columns[k]}
				}
				op = exec.NewProject(&plan.Project{Input: x, Exprs: exprs, Out: x.Out}, op, ctx)
			}
			for k := len(wrappers) - 1; k >= 0; k-- {
				var err error
				op, err = exec.BuildStep(wrappers[k], op, ctx)
				if err != nil {
					return nil, err
				}
			}
			return op, nil
		default:
			return nil, fmt.Errorf("reopt: unexpected %T in leaf pipeline", cur)
		}
	}
}

// record is the one writer of a checkpoint's decision: it appends the
// record to the stats and derives from it the stats counters, the
// progress record's checkpoint and switch counts and score floor, and
// the query's one trace event for the checkpoint.
func (r *dispatchRun) record(rec Decision) {
	st := r.st
	st.Decisions = append(st.Decisions, rec)
	st.MemReallocs += b2i(rec.Moved > 0)
	st.PlanSwitches += b2i(rec.Switched())
	pos := 0.0
	if rec.Estimate > 0 {
		pos = rec.Improved / rec.Estimate
	}
	r.ctx.Prog.RecordDecision(pos, rec.Switched())
	if r.Cfg.Trace.Enabled() {
		r.Cfg.Trace.Emit("decision", rec.String())
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkpoint processes one statistics report at the decision point after
// step i's build phase. It updates estimates for the unexecuted plan
// suffix, re-invokes the Memory Manager (memory modes), and evaluates
// Equations 1 and 2 plus the trial re-optimization (plan modes). A
// decision to keep the plan is recorded here; a switching one is
// returned unrecorded, for switchPlan to record once its strategy is
// settled.
func (r *dispatchRun) checkpoint(i int, obs *plan.Observed) (Decision, error) {
	// A cancelled query must not start a trial re-optimization or commit
	// to a plan switch; check once at the decision point.
	if err := r.ctx.Err(); err != nil {
		return Decision{}, err
	}
	if err := faultinject.Hit("reopt.checkpoint"); err != nil {
		return Decision{}, err
	}
	if r.Cfg.CheckpointHook != nil {
		r.Cfg.CheckpointHook(i)
	}
	cnode := r.collectors[obs.CollectorID]
	rec := Decision{Step: i, ObsRows: obs.Rows, EstRows: cnode.Est().Rows, Rels: r.observedSet(cnode)}
	ratio := 1.0
	switch {
	case rec.EstRows > 0:
		ratio = obs.Rows / rec.EstRows
	case obs.Rows > 0:
		ratio = obs.Rows // estimate said empty; scale from 1
	}
	applyImproved(r.dec, i, cnode, obs, ratio)
	resizeSuffix(r.dec, i, cnode, obs)

	// In the combined mode the Memory Manager is re-invoked before the
	// plan-modification decision: re-allocation is free (grants only
	// matter once an operator starts), and Equation 2's improved
	// estimate must reflect the memory the remainder will actually
	// have — otherwise a plan switch can preempt a superior memory fix.
	pol := policies[r.Cfg.Mode]
	if pol.realloc {
		r.reallocate(r.dec, i, &rec)
	}
	// T_cur,improved, priced once under the final grants: Equation 2
	// reads it, and so does the live score's floor.
	rec.Elapsed = r.ctx.Meter.Snapshot().Sub(r.startSnap).Cost()
	rec.Improved = rec.Elapsed + r.remainderCost(i)
	rec.Estimate = r.origTotal
	switch {
	case !pol.replan:
		rec.Cause = CauseMemoryOnly
	case r.st.PlanSwitches >= r.Cfg.MaxSwitches:
		rec.Cause = CauseExhausted
	default:
		if err := r.considerSwitch(i, obs, &rec); err != nil {
			return Decision{}, err
		}
	}
	if !rec.Switched() {
		r.record(rec)
	}
	return rec, nil
}

// considerSwitch evaluates Equations 1 and 2 and the trial
// re-optimization at one checkpoint, setting the record's cause.
func (r *dispatchRun) considerSwitch(i int, obs *plan.Observed, rec *Decision) error {
	// Equation 2: the plan is only suspect if the improved estimate is
	// significantly worse than what the optimizer promised (a plan that
	// promised nothing never is).
	if rec.Estimate <= 0 || (rec.Improved-rec.Estimate)/rec.Estimate <= r.Cfg.Theta2 {
		rec.Cause = CauseEq2
		return nil
	}
	// Equation 1: re-optimization must be cheap relative to the
	// remaining work.
	rec.TOpt = optimizer.OptTime(len(r.res.Query.Rels) - (i + 2))
	if rec.TOpt/rec.Improved > r.Cfg.Theta1 {
		rec.Cause = CauseEq1
		return nil
	}
	if policies[r.Cfg.Mode].restart {
		// The discard-everything ablation skips the trial: it always
		// believes a fresh start will win.
		rec.Cause = CauseRestart
		return nil
	}
	// Trial re-optimization: T_opt,actual is charged whether or not the
	// new plan is adopted (§2.4).
	if err := r.trialOptimize(i, obs, rec); err != nil {
		return err
	}
	rec.Cause = CauseTrialLost
	if rec.Trial > 0 && rec.Trial < rec.Improved*(1-r.Cfg.SwitchMargin) {
		rec.Cause = CauseTrialWon
		rec.Via = r.Cfg.Strategy
	}
	return nil
}

// applyImproved scales the row and byte estimates of step i and every
// later step by the observed/estimated cardinality ratio; the observing
// collector takes the observed rows and bytes. resizeSuffix re-derives
// the rest.
func applyImproved(dec *decomposed, i int, cnode *plan.Collector, obs *plan.Observed, ratio float64) {
	ce := cnode.Est()
	ce.Rows = obs.Rows
	ce.Bytes = obs.Bytes
	for k := i; k < len(dec.steps); k++ {
		scaleStep(dec.steps[k], ratio, cnode)
	}
}

// resizeSuffix re-derives, once the cardinalities are scaled, the
// unexecuted suffix bottom-up through the optimizer's sizing rules:
// every later join's demand from its build, then the top operators,
// inputs before consumers. An aggregate keeps its groups — or takes the
// distinct count observed for its grouping columns — capped by its
// input's rows.
func resizeSuffix(dec *decomposed, i int, cnode *plan.Collector, obs *plan.Observed) {
	for k := i + 1; k < len(dec.steps); k++ {
		optimizer.Resize(dec.steps[k].join)
	}
	for k := len(dec.tops) - 1; k >= 0; k-- {
		t := unwrapTop(dec.tops[k])
		if agg, ok := t.(*plan.Agg); ok {
			e := agg.Est()
			inRows := agg.Input.Est().Rows
			groups := math.Min(e.Rows, inRows)
			if u, ok := findUniqueObs(obs, cnode, agg); ok {
				groups = math.Min(u, inRows)
			}
			e.Rows = math.Max(1, groups)
		}
		optimizer.Resize(t)
	}
}

// scaleEst multiplies a node's row and byte estimates by r.
func scaleEst(n plan.Node, r float64) {
	e := n.Est()
	e.Rows *= r
	e.Bytes *= r
}

// scaleStep scales a step's join and its wrappers but skip by r.
// Exchanges delegate Est to their input; scaling one would scale the
// node below it twice.
func scaleStep(step chainStep, r float64, skip plan.Node) {
	scaleEst(step.join, r)
	for _, w := range step.wrappers {
		if _, ok := w.(*plan.Exchange); !ok && w != skip {
			scaleEst(w, r)
		}
	}
}

// findUniqueObs matches an aggregate's grouping columns against the
// observed distinct-count sets by column identity.
func findUniqueObs(obs *plan.Observed, cnode *plan.Collector, agg *plan.Agg) (float64, bool) {
	if len(obs.Uniques) == 0 {
		return 0, false
	}
	aggIn := agg.Input.Schema()
	want := map[string]bool{}
	for _, gc := range agg.GroupCols {
		c := aggIn.Columns[gc]
		want[c.Table+"."+c.Name] = true
	}
	colSchema := cnode.Input.Schema()
	for _, set := range cnode.Spec.UniqueCols {
		if len(set) != len(want) {
			continue
		}
		all := true
		for _, ci := range set {
			c := colSchema.Columns[ci]
			if !want[c.Table+"."+c.Name] {
				all = false
				break
			}
		}
		if all {
			if u, ok := obs.Uniques[plan.UniqueKey(set)]; ok {
				return u, true
			}
		}
	}
	return 0, false
}

// reallocate re-invokes the Memory Manager over the operators that have
// not started executing, under the budget minus what the running join
// still holds (§2.3), noting in rec what it did.
func (d *Dispatcher) reallocate(dec *decomposed, i int, rec *Decision) {
	var notStarted []plan.Node
	for k := i + 1; k < len(dec.steps); k++ {
		if dec.steps[k].join.Est().MemMax > 0 {
			notStarted = append(notStarted, dec.steps[k].join)
		}
	}
	for k := len(dec.tops) - 1; k >= 0; k-- {
		if dec.tops[k].Est().MemMax > 0 {
			notStarted = append(notStarted, dec.tops[k])
		}
	}
	if len(notStarted) == 0 {
		return
	}
	held := dec.steps[i].join.Est().Grant // the running join's hash table
	rec.Realloc = true
	if lease := d.Cfg.Lease; lease != nil {
		// Brokered pool: grants follow the improved demands both ways.
		// If the remainder needs more than the lease holds, try to grow
		// it (non-blocking, never overtaking queued queries); whatever
		// the re-allocation then leaves uncommitted is surplus the
		// broker can hand to *other* queries — the paper's §2.3
		// multi-query motivation. Unlike the single-query path below,
		// shrinking a pending operator's grant here is worth the
		// estimate risk: idle bytes in this query are admission delays
		// for the ones behind it.
		need := held
		for _, op := range notStarted {
			e := op.Est()
			need += math.Min(e.MemMin, e.MemMax)
		}
		if need > lease.Held() {
			rec.Grown = lease.Grow(need - lease.Held())
		}
		budget := math.Max(0, lease.Held()-held)
		rec.Moved = memmgr.New(budget).AllocateOps(notStarted, budget)
		committed := held
		for _, op := range notStarted {
			committed += op.Est().Grant
		}
		if surplus := lease.Held() - committed; surplus > 0 {
			rec.Returned = lease.Return(surplus)
		}
		return
	}
	budget := math.Max(0, d.Cfg.MemBudget-held)
	// Re-allocation must never leave an operator worse off than the
	// initial allocation did: the earlier joins' grants are freed by
	// now, so every old grant still fits in the reduced budget. Floor
	// each operator's minimum — and, if the improved estimate shrank
	// its declared maximum, the maximum too — at the current grant.
	// A scaled-down estimate is still an estimate; taking memory away
	// on its word can introduce a spill the initial allocation had
	// already paid to avoid, while keeping the old grant costs nothing
	// (operator memory is a budget, not a shared cache).
	savedMins := make([]float64, len(notStarted))
	for k, op := range notStarted {
		e := op.Est()
		savedMins[k] = e.MemMin
		if e.MemMax < e.Grant {
			e.MemMax = e.Grant
		}
		if e.MemMin < e.Grant {
			e.MemMin = e.Grant
		}
	}
	rec.Moved = memmgr.New(budget).AllocateOps(notStarted, budget)
	for k, op := range notStarted {
		op.Est().MemMin = savedMins[k]
	}
}

// remainderCost is T_cur-plan,improved less the elapsed time: the
// optimizer's price of the unexecuted suffix under the improved
// estimates and current grants — the rest of step i's join, every later
// step, and the top operators.
func (r *dispatchRun) remainderCost(i int) float64 {
	o := r.Optimizer()
	cost := priceStep(o, r.dec.steps[i], true)
	for k := i + 1; k < len(r.dec.steps); k++ {
		cost += priceStep(o, r.dec.steps[k], false)
	}
	for k := len(r.dec.tops) - 1; k >= 0; k-- {
		t := unwrapTop(r.dec.tops[k])
		cost += o.SelfCost(t, t.Est().Grant)
	}
	return cost
}

// priceStep prices a step of the chain under its grant: its join — only
// what remains of it when its build phase has run — and the wrappers on
// its output. A probe leaf keeps its planned price: the scan was priced
// on its table, not on its rows.
func priceStep(o *optimizer.Optimizer, step chainStep, built bool) float64 {
	var cost float64
	switch j := step.join.(type) {
	case *plan.HashJoin:
		if built {
			cost = o.ProbeCost(j, j.Est().Grant)
		} else {
			cost = j.Probe.Est().Cost + o.SelfCost(j, j.Est().Grant)
		}
	default:
		cost = o.SelfCost(j, j.Est().Grant)
	}
	wrappers := 0.0
	for _, w := range step.wrappers {
		wrappers += o.SelfCost(w, 0)
	}
	return cost + wrappers
}

// observedSet returns the relation set of the first plan's query whose
// rows collector c counts, from the bindings scanned under it; 0 for a
// collector under a residual filter.
func (r *dispatchRun) observedSet(c *plan.Collector) uint32 {
	for _, f := range r.filtered {
		if f == c {
			return 0
		}
	}
	return r.scanSet(c.Input)
}

// scanSet ORs the relation sets of the bindings scanned under n. A
// collector's input holds only scans, joins and the unary nodes of the
// join chain; those are followed field by field, since Children builds
// a slice per call.
func (d *Dispatcher) scanSet(n plan.Node) uint32 {
	switch x := n.(type) {
	case *plan.Scan:
		return d.relSet(x.Binding)
	case *plan.IndexJoin:
		return d.relSet(x.Binding) | d.scanSet(x.Outer)
	case *plan.HashJoin:
		return d.scanSet(x.Build) | d.scanSet(x.Probe)
	case *plan.Filter:
		return d.scanSet(x.Input)
	case *plan.Collector:
		return d.scanSet(x.Input)
	case *plan.Exchange:
		return d.scanSet(x.Input)
	}
	var set uint32
	for _, c := range n.Children() {
		set |= d.scanSet(c)
	}
	return set
}

// stand registers a temp as the binding for this plan's consumed
// relations and returns the relation set of the first plan's query it
// covers: its relations map by binding, and a temp among them maps to
// the set it stands for.
func (r *dispatchRun) stand(tempName string, consumed uint32) uint32 {
	var set uint32
	for k, rel := range r.res.Query.Rels {
		if consumed&(1<<uint(k)) != 0 {
			set |= r.relSet(rel.Binding)
		}
	}
	r.prefixes = append(r.prefixes, prefix{binding: strings.ToLower(tempName), set: set})
	return set
}

// consumedMask returns the relation bitmask materialized after step i
// completes: the leftmost relation plus every relation joined by steps
// 0..i.
func consumedMask(res *optimizer.Result, i int) uint32 {
	var m uint32
	for k := 0; k <= i+1 && k < len(res.Order); k++ {
		m |= 1 << uint(res.Order[k])
	}
	return m
}

// trialOptimize registers a virtual temp table with improved statistics,
// optimizes the remainder query against it, and sets rec.Trial to the
// estimated total time of the switch path: elapsed + finishing the
// running join + materialization write + the new plan (which itself
// includes re-reading the temp). With nothing to re-plan it stays 0.
// T_opt,actual is charged to the meter here, adopted or not.
func (r *dispatchRun) trialOptimize(i int, obs *plan.Observed, rec *Decision) error {
	matEst := r.dec.stepTopNode(i).Est()
	if matEst.Rows <= 0 {
		return nil
	}
	tempName, newRes, err := r.optimizeRemainder(i, obs, "trial")
	if err != nil {
		return err
	}
	defer r.dropTemp(tempName)
	r.ctx.Meter.ChargeRaw(optimizer.OptCost(newRes.PlansConsidered))

	// The splice strategy (Figure 5) avoids the materialization
	// write; the new plan's temp-scan cost is already ~zero because
	// the virtual temp has no pages, matching the live-stream reality.
	o := r.Optimizer()
	tMat := 0.0
	if r.Cfg.Strategy == StrategyMaterialize {
		tMat = o.TempWriteCost(matEst.Bytes)
	}
	rec.Trial = rec.Elapsed + priceStep(o, r.dec.steps[i], true) + tMat + newRes.Root.Est().Cost
	return nil
}

// optimizeRemainder re-optimizes what is left of the query after step i
// against a virtual temp table — registered under a fresh name of the
// given kind, never populated — that stands for step i's output and
// carries the improved estimates and the collector's run-time
// statistics. The caller drops the returned temp once it is done with
// the new plan; on error nothing is left registered (a drop that itself
// fails stays tracked for Cleanup).
func (r *dispatchRun) optimizeRemainder(i int, obs *plan.Observed, kind string) (string, *optimizer.Result, error) {
	matNode := r.dec.stepTopNode(i)
	matEst := matNode.Est()
	r.tempSeq++
	tempName := r.tempName(kind)
	consumed := consumedMask(r.res, i)
	r.stand(tempName, consumed)
	heap := storage.NewHeapFile(r.ctx.Pool) // placeholder; never populated
	tbl, err := r.Cat.RegisterTemp(tempName, tempSchema(matNode.Schema()), heap)
	if err != nil {
		return "", nil, err
	}
	r.trackTemp(tempName)
	tbl.Cardinality = matEst.Rows
	if matEst.Rows > 0 {
		tbl.AvgTupleBytes = matEst.Bytes / matEst.Rows
	}
	fillTempStats(tbl, matNode.Schema(), obs, r.collectors[obs.CollectorID], r.res.Query, matEst.Rows)

	var newRes *optimizer.Result
	remStmt, err := remainderStmt(r.res.Query, consumed, tempName)
	if err == nil {
		newRes, err = r.Optimize(remStmt)
	}
	if err != nil {
		r.dropTemp(tempName)
		return "", nil, err
	}
	return tempName, newRes, nil
}

// fillTempStats populates the virtual (or real) temp table's column
// statistics: run-time histograms where the collector observed them,
// base-table statistics carried through otherwise.
func fillTempStats(tbl *catalog.Table, matSchema *types.Schema, obs *plan.Observed, cnode *plan.Collector, q *optimizer.Query, outRows float64) {
	colSchema := cnode.Input.Schema()
	for ci, c := range matSchema.Columns {
		cs := &catalog.ColumnStats{Min: types.Null(), Max: types.Null()}
		// Observed histogram for this column?
		if obs != nil {
			for _, hc := range cnode.Spec.HistCols {
				oc := colSchema.Columns[hc]
				if oc.Table == c.Table && oc.Name == c.Name {
					if h, ok := obs.Hists[hc]; ok && h != nil {
						cs.Hist = h.Scaled(outRows)
						cs.Distinct = h.TotalDistinct
						if mn, ok := obs.Mins[hc]; ok {
							cs.Min = mn
						}
						if mx, ok := obs.Maxs[hc]; ok {
							cs.Max = mx
						}
					}
				}
			}
		}
		if cs.Hist == nil {
			// Carry base-table statistics through.
			for ri := range q.Rels {
				rel := &q.Rels[ri]
				if rel.Binding != c.Table {
					continue
				}
				if bi, err := rel.Schema.Resolve(c.Table, c.Name); err == nil {
					if bcs := rel.Table.ColStat(bi); bcs != nil {
						cs.Hist = bcs.Hist
						cs.Distinct = math.Min(bcs.Distinct, outRows)
						cs.Min, cs.Max = bcs.Min, bcs.Max
					}
				}
			}
		}
		tbl.ColStats[ci] = cs
	}
}
