package reopt

import (
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// matCollectorID tags the ad-hoc collector wrapped around a materialized
// stream (Figure 6 places a statistics collector directly above the
// operator whose output is redirected to Temp1).
const matCollectorID = -1

// switchPlan executes the paper's Figure 6 plan modification: let the
// currently executing join run to completion with its output redirected
// to a temporary table (observed by an ad-hoc statistics collector),
// register the temp table with its real statistics, generate SQL for the
// remainder of the query in terms of the temp table, and re-submit it
// through the regular compile-and-dispatch path. The checkpoint's
// decision is recorded once the strategy is settled, before the
// remainder runs.
func (r *dispatchRun) switchPlan(i int, obs *plan.Observed, topOp exec.Operator, rec Decision) ([]types.Tuple, error) {
	if rec.Cause == CauseRestart {
		// The restart ablation (the paper's rejected option 1) discards
		// the completed work: the running join is closed undrained, or
		// its spilled partitions outlive the query, and the leftmost
		// relation is re-scanned — the discarded work, made visible.
		topOp.Close()
		leafOp, err := exec.Build(r.dec.leafTop, r.ctx)
		if err != nil {
			return nil, err
		}
		return r.materializeAndResubmit(r.dec.leafTop, leafOp, uint32(1)<<uint(r.res.Order[0]), rec)
	}
	if rec.Via == StrategySplice {
		rows, ok, err := r.splicePlan(i, obs, topOp, rec)
		if err != nil {
			return nil, err
		}
		if ok {
			return rows, nil
		}
		// The re-optimized remainder did not keep the intermediate
		// leftmost; fall back to Figure 6.
		rec.Via = StrategyMaterialize
	}
	return r.materializeAndResubmit(r.dec.stepTopNode(i), topOp, consumedMask(r.res, i), rec)
}

// splicePlan implements Figure 5: the remainder of the query is
// re-optimized against a virtual temp table carrying the improved
// estimates, and — when the new plan keeps the intermediate as its
// leftmost input — the running join's output stream is spliced directly
// into the new plan, preserving all completed execution state and
// paying no materialization.
func (r *dispatchRun) splicePlan(i int, obs *plan.Observed, liveOp exec.Operator, rec Decision) ([]types.Tuple, bool, error) {
	tempName, newRes, err := r.optimizeRemainder(i, obs, "splice")
	if err != nil {
		return nil, false, err
	}
	// Best-effort on every exit; a failed drop leaves the name tracked
	// for the session's Cleanup backstop.
	defer r.dropTemp(tempName)
	// Splice is only possible when the intermediate stays leftmost: the
	// live stream can be consumed exactly once, as a build input.
	if newRes.Query.Rels[newRes.Order[0]].Binding != tempName {
		return nil, false, nil
	}
	r.record(rec)
	rows, err := r.dispatch(newRes, r.params, r.ctx, r.st, liveOp)
	return rows, true, err
}

// materializeAndResubmit drains op — the operator tree rooted at plan
// node matNode, covering the relations in consumed — into a temp table
// under an ad-hoc statistics collector, records the switch, then
// re-optimizes and runs the remainder query over it.
func (r *dispatchRun) materializeAndResubmit(matNode plan.Node, op exec.Operator, consumed uint32, rec Decision) ([]types.Tuple, error) {
	ctx := r.ctx
	matSchema := matNode.Schema()
	spec := r.matSpec(r.res, matSchema, consumed)
	cnode := &plan.Collector{Input: matNode, Spec: spec, ID: matCollectorID}

	// Only the ad-hoc collector's report is read: one from a collector
	// inside the drained stream belongs to the plan being left, whose
	// checkpoints are over.
	var matObs *plan.Observed
	oldSink := ctx.StatsSink
	ctx.StatsSink = func(o *plan.Observed) {
		if o.CollectorID == matCollectorID {
			matObs = o
		}
	}
	colOp := exec.NewCollector(cnode, op, ctx)
	if err := colOp.Open(); err != nil {
		// Close the collector (and through it the drained stream) so a
		// failed open does not strand the running join's partitions.
		colOp.Close()
		ctx.StatsSink = oldSink
		return nil, err
	}
	heap, err := exec.Materialize(colOp, ctx)
	colOp.Close()
	ctx.StatsSink = oldSink
	if err != nil {
		return nil, err
	}

	r.tempSeq++
	tempName := r.tempName("temp")
	tbl, err := r.Cat.RegisterTemp(tempName, tempSchema(matSchema), heap)
	if err != nil {
		heap.Drop() // free the materialized pages; nobody owns them now
		return nil, err
	}
	r.trackTemp(tempName)
	rec.MatRels, rec.MatRows = r.stand(tempName, consumed), float64(heap.NumTuples())
	if matObs != nil {
		fillTempStats(tbl, matSchema, matObs, cnode, r.res.Query, rec.MatRows)
	}

	remStmt, err := remainderStmt(r.res.Query, consumed, tempName)
	if err != nil {
		r.dropTemp(tempName)
		return nil, err
	}
	r.record(rec)
	// Re-submission: the remainder goes through the same Optimize and
	// dispatch steps that compiled and ran the query in the first place.
	var rows []types.Tuple
	newRes, err := r.Optimize(remStmt)
	if err == nil {
		rows, err = r.dispatch(newRes, r.params, ctx, r.st, nil)
	}
	if derr := r.dropTemp(tempName); derr != nil && err == nil {
		err = derr
	}
	return rows, err
}

// matSpec chooses the statistics worth observing on a materialized
// stream: histograms on columns the remaining predicates will consult,
// and a distinct count for the final GROUP BY if every grouped column is
// present.
func (d *Dispatcher) matSpec(res *optimizer.Result, matSchema *types.Schema, consumed uint32) plan.CollectorSpec {
	q := res.Query
	spec := plan.CollectorSpec{HistFamily: d.Cfg.HistFamily, Seed: d.Cfg.Seed + int64(d.tempSeq) + 101}
	seen := map[int]bool{}
	for _, pr := range q.Preds {
		if pr.RelMask()&^consumed == 0 {
			continue // fully applied inside the prefix
		}
		for _, ref := range predRefs(pr.AST) {
			rel, col, err := q.Owner(ref)
			if err != nil || consumed&(1<<uint(rel)) == 0 {
				continue
			}
			c := q.Rels[rel].Schema.Columns[col]
			ci, err := matSchema.Resolve(c.Table, c.Name)
			if err != nil || seen[ci] {
				continue
			}
			seen[ci] = true
			spec.HistCols = append(spec.HistCols, ci)
		}
	}
	if len(q.Stmt.GroupBy) > 0 {
		var set []int
		ok := true
		for _, g := range q.Stmt.GroupBy {
			ref, isRef := g.(*sql.ColumnRef)
			if !isRef {
				ok = false
				break
			}
			rel, col, err := q.Owner(ref)
			if err != nil || consumed&(1<<uint(rel)) == 0 {
				ok = false
				break
			}
			c := q.Rels[rel].Schema.Columns[col]
			ci, err := matSchema.Resolve(c.Table, c.Name)
			if err != nil {
				ok = false
				break
			}
			set = append(set, ci)
		}
		if ok && len(set) > 0 {
			spec.UniqueCols = append(spec.UniqueCols, set)
		}
	}
	return spec
}

// predRefs lists every column reference in a predicate.
func predRefs(p sql.Predicate) []*sql.ColumnRef {
	var out []*sql.ColumnRef
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			out = append(out, x)
		case *sql.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sql.AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	for _, e := range sql.Operands(p) {
		walk(e)
	}
	return out
}
