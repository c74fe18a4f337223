package optimizer

import (
	"math"

	"repro/internal/storage"
)

// The cost model mirrors the executor's charging discipline so that
// optimizer estimates and measured execution are in the same units:
//
//	seq scan      pages × PageRead + rows × TupleCPU
//	hash join     (build + probe + out) × TupleCPU,
//	              plus (buildPages+probePages) × (PageRead+PageWrite)
//	              when the build exceeds its memory grant (the Grace
//	              partitioning pass)
//	indexed join  outer × (1 index read + matches × heap reads) + CPU
//	aggregate     (in + groups) × TupleCPU, plus a spill pass when the
//	              group table exceeds its grant
//	sort          2 × rows × TupleCPU, plus a run write+read pass
//	collector     rows × StatCPU (charged by the SCIA when inserting)
//
// Memory demands follow the executor's constants: a hash join needs
// buildFudge × buildBytes to run in one pass.

// buildFudge must match exec.buildFudge.
const buildFudge = 1.2

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

// costModel computes node estimates.
type costModel struct {
	w      storage.CostWeights
	budget float64
	// poolPages sizes the shared buffer pool for cache-aware I/O
	// estimates (index-join heap fetches re-touch pages); 0 means
	// assume every fetch misses.
	poolPages float64
}

// grantFor is the grant planning assumes an operator demanding memMax
// gets: min(demand, budget), the whole demand with no budget. It is the
// optimistic assumption whose failure (when several operators compete)
// produces the paper's Figure 3 sub-optimality.
func (c *costModel) grantFor(memMax float64) float64 {
	if c.budget <= 0 {
		return memMax
	}
	return math.Min(memMax, c.budget)
}

func pagesOf(bytes float64) float64 {
	return math.Max(1, math.Ceil(bytes/float64(storage.PageSize)))
}

// scanCost returns the cost of scanning a table and filtering it.
func (c *costModel) scanCost(pages, rows float64) float64 {
	return pages*c.w.PageRead + rows*c.w.TupleCPU
}

// hashJoinSelf returns the join's own cost (excluding children) and
// whether it is expected to spill under the given grant.
func (c *costModel) hashJoinSelf(buildRows, buildBytes, probeRows, probeBytes, outRows, grant float64) (cost float64, spills bool) {
	// Build tuples cost double: a hash-table insert (allocate, copy,
	// chain) is heavier than a probe. The executor charges the same,
	// and the asymmetry is what steers the DP toward small build sides.
	cost = (2*buildRows + probeRows + outRows) * c.w.TupleCPU
	need := buildBytes * buildFudge
	if grant > 0 && need > grant {
		spills = true
		ioPages := pagesOf(buildBytes) + pagesOf(probeBytes)
		cost += ioPages * (c.w.PageRead + c.w.PageWrite)
	}
	return cost, spills
}

// indexJoinSelf returns the indexed nested-loops join's own cost.
// matchesPerProbe is the expected inner matches per outer tuple;
// tablePages and tableRows size the inner table; clustering is the
// index's clustering factor. Heap fetches are cache-aware: clustered
// access touches about one page per page-worth of matching rows, while
// random access misses until the pool holds the table's resident
// fraction.
func (c *costModel) indexJoinSelf(outerRows, matchesPerProbe, outRows, tablePages, tableRows, clustering float64) float64 {
	probes := outerRows * c.w.PageRead // one index-leaf read per probe
	fetches := outerRows * matchesPerProbe

	random := fetches
	if tablePages > 0 && fetches > tablePages {
		resident := tablePages
		if c.poolPages > 0 && c.poolPages < tablePages {
			resident = c.poolPages
		}
		missRatio := 1 - resident/tablePages
		random = tablePages + (fetches-tablePages)*missRatio
	}
	clustered := random
	if tableRows > 0 && tablePages > 0 {
		clustered = math.Min(random, fetches*tablePages/tableRows+1)
	}
	misses := clustering*clustered + (1-clustering)*random

	cpu := (outerRows + outRows) * c.w.TupleCPU
	return probes + misses*c.w.PageRead + cpu
}

// aggSelf returns the aggregation's own cost under the given grant.
func (c *costModel) aggSelf(inRows, groups, stateBytes, grant float64) float64 {
	cost := (inRows + groups) * c.w.TupleCPU
	need := groups * stateBytes
	if grant > 0 && need > grant {
		pages := pagesOf(need)
		cost += pages * (c.w.PageRead + c.w.PageWrite)
	}
	return cost
}

// sortSelf returns the sort's own cost under the given grant.
func (c *costModel) sortSelf(rows, bytes, grant float64) float64 {
	cost := 2 * rows * c.w.TupleCPU
	if grant > 0 && bytes > grant {
		pages := pagesOf(bytes)
		cost += pages * (c.w.PageRead + c.w.PageWrite)
	}
	return cost
}

// joinMemDemands returns a hash join's (min, max) memory demand.
func joinMemDemands(buildBytes float64) (mn, mx float64) {
	mx = math.Max(minDemandBytes, buildBytes*buildFudge)
	mn = math.Min(mx, minGrantBytes)
	return mn, mx
}

// stepMemDemands returns (min, max) for incremental consumers.
func stepMemDemands(needBytes float64) (mn, mx float64) {
	mx = math.Max(minDemandBytes, needBytes)
	mn = math.Min(mx, minGrantBytes)
	return mn, mx
}
