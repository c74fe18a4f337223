package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The optimizer is the engine's one cost model. It prices a plan's nodes
// in the units the executor charges, so that estimates and measured
// execution compare: the DP at plan time, the dispatcher at every
// checkpoint (Equation 2's improved estimate and the trial total), the
// SCIA for the collectors it inserts, a plan switch for its temp, and a
// trial for the optimization itself. Every price comes from one function
// per kind of work:
//
//	seq scan      pages × PageRead + rows × TupleCPU
//	hash join     (2 × build + probe + out) × TupleCPU,
//	              plus (buildPages+probePages) × (PageRead+PageWrite)
//	              when the build exceeds its memory grant (the Grace
//	              partitioning pass)
//	indexed join  outer × (1 index read + matches × heap reads) + CPU
//	aggregate     (in + groups) × TupleCPU, plus a spill pass when the
//	              group table exceeds its grant
//	sort          2 × rows × TupleCPU, plus a run write+read pass
//	collector     rows × StatCPU
//	temp write    pages × PageWrite (a materializing plan switch)
//	optimization  plans considered × optCostPerPlan (T_opt,actual)
//
// Memory demands follow the executor's constants: a hash join needs
// plan.BuildFudge × buildBytes to run in one pass, a sort sortFudge ×
// its input.

// sortFudge is a sort's memory overhead over the bytes it holds.
const sortFudge = 1.1

// minGrantBytes is the floor memory every consumer can count on (the
// paper's example uses 250 KB as a hash join's minimum).
const minGrantBytes = 256 * 1024

// minDemandBytes floors every operator's declared maximum demand. A
// cardinality under-estimate of "zero rows" must not translate into a
// one-byte grant whose first real tuple triggers a pathological spill.
const minDemandBytes = 64 * 1024

// aggStateBytes estimates per-group state as the executor charges it:
// the key, each aggregate's four encoded slots (sum, count, min, max) and
// bookkeeping — a spilled state's width, though a group in memory keeps
// only what its functions return.
func aggStateBytes(keyBytes float64, nAggs int) float64 {
	return keyBytes + float64(4*8*nAggs) + 48
}

// aggKeyBytes is the width of an aggregate's grouping key.
func aggKeyBytes(x *plan.Agg) float64 {
	in := x.Input.Schema()
	w := 0.0
	for _, c := range x.GroupCols {
		w += catalog.KindWidth(in.Columns[c].Kind)
	}
	return w
}

// tableCard is the cardinality a scan of t is planned on: the analyzed
// count, or the heap's physical count for a table never analyzed.
func tableCard(t *catalog.Table) float64 {
	card, _ := t.Stats()
	if card <= 0 {
		card = float64(t.Heap.NumTuples())
	}
	return card
}

// SelfCost prices n's own work from its inputs' current estimates, its
// own rows and the memory grant it runs under: planning passes the grant
// it assumes, a checkpoint the Memory Manager's. Filters, projections,
// limits and exchanges do no priced work.
func (o *Optimizer) SelfCost(n plan.Node, grant float64) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		return o.scanCost(x.Table.NumPages(), tableCard(x.Table))
	case *plan.HashJoin:
		b, p := x.Build.Est(), x.Probe.Est()
		return o.hashJoinSelf(b.Rows, b.Bytes, p.Rows, p.Bytes, x.Est().Rows, grant)
	case *plan.IndexJoin:
		clustering := 0.0
		if idx, ok := x.Table.Indexes[x.InnerCol]; ok {
			clustering = idx.Clustering
		}
		return o.indexJoinSelf(x.Outer.Est().Rows, x.EstMatches, x.Est().Rows,
			x.Table.NumPages(), float64(x.Table.Heap.NumTuples()), clustering)
	case *plan.Agg:
		return o.aggSelf(x.Input.Est().Rows, x.Est().Rows, aggStateBytes(aggKeyBytes(x), len(x.Aggs)), grant)
	case *plan.Sort:
		in := x.Input.Est()
		return o.sortSelf(in.Rows, in.Bytes, grant)
	case *plan.Collector:
		if x.Spec.Empty() {
			return 0
		}
		return x.Input.Est().Rows * o.Weights.StatCPU
	}
	return 0
}

// ProbeCost prices what remains of hash join j once its build phase has
// run under grant: its probe input at the price planned for it, the probe
// and output CPU, and, when the build spilled, the partition I/O still
// owed — reading the build partitions back, writing and reading the
// probe's.
func (o *Optimizer) ProbeCost(j *plan.HashJoin, grant float64) float64 {
	b, p := j.Build.Est(), j.Probe.Est()
	cost := p.Cost + (p.Rows+j.Est().Rows)*o.Weights.TupleCPU
	if spills(b.Bytes, grant) {
		cost += pagesOf(b.Bytes)*o.Weights.PageRead + pagesOf(p.Bytes)*(o.Weights.PageRead+o.Weights.PageWrite)
	}
	return cost
}

// TempWriteCost prices writing a materialized temp of the given bytes.
func (o *Optimizer) TempWriteCost(bytes float64) float64 {
	return pagesOf(bytes) * o.Weights.PageWrite
}

// Resize re-derives n's size from its rows and its input's estimates,
// exactly as planning derived it. A projection or sort copies its input's
// rows and bytes, and a limit keeps min(N, input) rows at the input's
// width. A sort demands what it holds, an aggregate its groups'
// aggStateBytes, and a hash join follows its build bytes. Other nodes,
// and an aggregate's bytes, keep what they have.
func Resize(n plan.Node) {
	e := n.Est()
	switch x := n.(type) {
	case *plan.HashJoin:
		e.MemMin, e.MemMax = joinMemDemands(x.Build.Est().Bytes)
		e.MemStep = true
	case *plan.Agg:
		e.MemMin, e.MemMax = stepMemDemands(e.Rows * aggStateBytes(aggKeyBytes(x), len(x.Aggs)))
	case *plan.Sort:
		in := x.Input.Est()
		e.Rows, e.Bytes = in.Rows, in.Bytes
		e.MemMin, e.MemMax = stepMemDemands(in.Bytes * sortFudge)
	case *plan.Project:
		in := x.Input.Est()
		e.Rows, e.Bytes = in.Rows, in.Bytes
	case *plan.Limit:
		in := x.Input.Est()
		e.Rows = math.Min(float64(x.N), in.Rows)
		e.Bytes = in.Bytes * safeDiv(e.Rows, in.Rows)
	}
}

// price sizes a node the DP has just built and prices it under the grant
// planning assumes; its cost is its inputs' plus its own.
func (o *Optimizer) price(n plan.Node, inputsCost float64) {
	Resize(n)
	e := n.Est()
	e.SelfCost = o.SelfCost(n, o.grantFor(e.MemMax))
	e.Cost = inputsCost + e.SelfCost
}

// grantFor is the grant planning assumes an operator demanding memMax
// gets: min(demand, budget), the whole demand with no budget. It is the
// optimistic assumption whose failure (when several operators compete)
// produces the paper's Figure 3 sub-optimality.
func (o *Optimizer) grantFor(memMax float64) float64 {
	if o.MemBudget <= 0 {
		return memMax
	}
	return math.Min(memMax, o.MemBudget)
}

func pagesOf(bytes float64) float64 {
	return math.Max(1, math.Ceil(bytes/float64(storage.PageSize)))
}

// spills reports whether a hash join with the given build runs in more
// than one pass under grant.
func spills(buildBytes, grant float64) bool {
	return grant > 0 && buildBytes*plan.BuildFudge > grant
}

// scanCost returns the cost of scanning a table and filtering it.
func (o *Optimizer) scanCost(pages, rows float64) float64 {
	return pages*o.Weights.PageRead + rows*o.Weights.TupleCPU
}

// hashJoinSelf returns the join's own cost (excluding children) under
// the given grant.
func (o *Optimizer) hashJoinSelf(buildRows, buildBytes, probeRows, probeBytes, outRows, grant float64) float64 {
	// Build tuples cost double: a hash-table insert (allocate, copy,
	// chain) is heavier than a probe. The executor charges the same,
	// and the asymmetry is what steers the DP toward small build sides.
	cost := (2*buildRows + probeRows + outRows) * o.Weights.TupleCPU
	if spills(buildBytes, grant) {
		ioPages := pagesOf(buildBytes) + pagesOf(probeBytes)
		cost += ioPages * (o.Weights.PageRead + o.Weights.PageWrite)
	}
	return cost
}

// indexJoinSelf returns the indexed nested-loops join's own cost.
// matchesPerProbe is the expected inner matches per outer tuple;
// tablePages and tableRows size the inner table; clustering is the
// index's clustering factor. Heap fetches are cache-aware: clustered
// access touches about one page per page-worth of matching rows, while
// random access misses until the pool holds the table's resident
// fraction (PoolPages; 0 assumes every fetch misses).
func (o *Optimizer) indexJoinSelf(outerRows, matchesPerProbe, outRows, tablePages, tableRows, clustering float64) float64 {
	probes := outerRows * o.Weights.PageRead // one index-leaf read per probe
	fetches := outerRows * matchesPerProbe

	random := fetches
	if tablePages > 0 && fetches > tablePages {
		resident := tablePages
		if o.PoolPages > 0 && o.PoolPages < tablePages {
			resident = o.PoolPages
		}
		missRatio := 1 - resident/tablePages
		random = tablePages + (fetches-tablePages)*missRatio
	}
	clustered := random
	if tableRows > 0 && tablePages > 0 {
		clustered = math.Min(random, fetches*tablePages/tableRows+1)
	}
	misses := clustering*clustered + (1-clustering)*random

	cpu := (outerRows + outRows) * o.Weights.TupleCPU
	return probes + misses*o.Weights.PageRead + cpu
}

// aggSelf returns the aggregation's own cost under the given grant.
func (o *Optimizer) aggSelf(inRows, groups, stateBytes, grant float64) float64 {
	cost := (inRows + groups) * o.Weights.TupleCPU
	need := groups * stateBytes
	if grant > 0 && need > grant {
		pages := pagesOf(need)
		cost += pages * (o.Weights.PageRead + o.Weights.PageWrite)
	}
	return cost
}

// sortSelf returns the sort's own cost under the given grant.
func (o *Optimizer) sortSelf(rows, bytes, grant float64) float64 {
	cost := 2 * rows * o.Weights.TupleCPU
	if grant > 0 && bytes > grant {
		pages := pagesOf(bytes)
		cost += pages * (o.Weights.PageRead + o.Weights.PageWrite)
	}
	return cost
}

// joinMemDemands returns a hash join's (min, max) memory demand.
func joinMemDemands(buildBytes float64) (mn, mx float64) {
	mx = math.Max(minDemandBytes, buildBytes*plan.BuildFudge)
	mn = math.Min(mx, minGrantBytes)
	return mn, mx
}

// stepMemDemands returns (min, max) for incremental consumers.
func stepMemDemands(needBytes float64) (mn, mx float64) {
	mx = math.Max(minDemandBytes, needBytes)
	mn = math.Min(mx, minGrantBytes)
	return mn, mx
}
