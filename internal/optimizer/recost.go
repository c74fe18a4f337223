package optimizer

import (
	"repro/internal/storage"
)

// Exported cost formulas for the re-optimizing dispatcher, which must
// compute the paper's T_cur-plan,improved: the expected cost of the
// not-yet-executed portion of the current plan under observed (rather
// than estimated) statistics. The dispatcher walks the remaining plan
// nodes with scaled cardinalities and prices each with these functions,
// which are exactly the formulas the optimizer itself planned with.

// HashJoinSelfCost prices a hash join's own work (build + probe + output
// CPU, plus the Grace partitioning pass when the build exceeds grant).
func HashJoinSelfCost(w storage.CostWeights, buildRows, buildBytes, probeRows, probeBytes, outRows, grant float64) float64 {
	cm := &costModel{w: w}
	cost, _ := cm.hashJoinSelf(buildRows, buildBytes, probeRows, probeBytes, outRows, grant)
	return cost
}

// HashJoinSpills reports whether a hash join with the given build size
// and grant runs in more than one pass.
func HashJoinSpills(buildBytes, grant float64) bool {
	return grant > 0 && buildBytes*buildFudge > grant
}

// HashJoinProbeCost prices only the probe phase (for a join whose build
// has already executed).
func HashJoinProbeCost(w storage.CostWeights, probeRows, outRows float64) float64 {
	return (probeRows + outRows) * w.TupleCPU
}

// IndexJoinSelfCost prices an indexed nested-loops join's own work with
// cache- and clustering-aware heap-fetch I/O.
func IndexJoinSelfCost(w storage.CostWeights, outerRows, matchesPerProbe, outRows, tablePages, tableRows, clustering, poolPages float64) float64 {
	cm := &costModel{w: w, poolPages: poolPages}
	return cm.indexJoinSelf(outerRows, matchesPerProbe, outRows, tablePages, tableRows, clustering)
}

// AggSelfCost prices a hash aggregation's own work.
func AggSelfCost(w storage.CostWeights, inRows, groups, stateBytes, grant float64) float64 {
	cm := &costModel{w: w}
	return cm.aggSelf(inRows, groups, stateBytes, grant)
}

// SortSelfCost prices an external sort's own work.
func SortSelfCost(w storage.CostWeights, rows, bytes, grant float64) float64 {
	cm := &costModel{w: w}
	return cm.sortSelf(rows, bytes, grant)
}

// JoinMemDemands exposes the hash join memory-demand formula so the
// dispatcher can refresh MemMin/MemMax from improved build-size
// estimates before re-invoking the Memory Manager (§2.3).
func JoinMemDemands(buildBytes float64) (mn, mx float64) {
	return joinMemDemands(buildBytes)
}

// StepMemDemands exposes the incremental-consumer demand formula
// (aggregates, sorts).
func StepMemDemands(needBytes float64) (mn, mx float64) {
	return stepMemDemands(needBytes)
}
