package exchange

import (
	"repro/internal/plan"
)

// Parallelize rewrites a serial physical plan for degree-N intra-query
// parallelism by inserting gathers at segment boundaries:
//
//   - each leaf pipeline (scan + filters + collectors) gets a gather on
//     top, executed by N page-partitioned scan workers;
//   - each hash-join step gets a gather above its wrapper nodes; its
//     inputs keep their serial children, and a parallel build input
//     gets a gather of its own (the stage routes both inputs by the
//     join's keys);
//   - an aggregation becomes gather{agg{input}} — partial aggregation
//     per worker, final merge at the gather;
//   - index-join steps and sorts stay serial (the index and the ordered
//     merge are single streams), with the segments below them still
//     parallel.
//
// Gathers land exactly at the re-optimizer's checkpoint boundaries, so
// collector reports, Eq. 1/2 decisions, memory re-allocation, and plan
// switches operate on serial streams between parallel regions.
//
// The pass runs after SCIA collector insertion and after memory
// allocation (gathers are estimate-transparent, so grants attach to the
// same nodes either way) and mutates the plan in place. Degree < 2 is a
// no-op.
func Parallelize(root plan.Node, deg int) plan.Node {
	if root == nil || deg < 2 {
		return root
	}
	return topsPass(root, deg)
}

// topsPass handles the serial tail above the join spine: projections,
// sorts, and limits pass through; an aggregation is rewritten into the
// partial/final cluster; anything else starts the spine.
func topsPass(n plan.Node, deg int) plan.Node {
	switch x := n.(type) {
	case *plan.Project:
		x.Input = topsPass(x.Input, deg)
		return x
	case *plan.Sort:
		x.Input = topsPass(x.Input, deg)
		return x
	case *plan.Limit:
		x.Input = topsPass(x.Input, deg)
		return x
	case *plan.Agg:
		x.Input = topsPass(x.Input, deg)
		return &plan.Exchange{Input: x, Degree: deg}
	default:
		nn, ok := spinePass(n, deg)
		if ok {
			return &plan.Exchange{Input: nn, Degree: deg}
		}
		return nn
	}
}

// spinePass rewrites the join spine bottom-up. The boolean reports
// whether the returned segment is parallel — i.e. whether the caller
// must put a gather above it before feeding a serial consumer.
func spinePass(n plan.Node, deg int) (plan.Node, bool) {
	switch x := n.(type) {
	case *plan.Collector:
		in, ok := spinePass(x.Input, deg)
		x.Input = in
		return x, ok
	case *plan.Filter:
		in, ok := spinePass(x.Input, deg)
		x.Input = in
		return x, ok
	case *plan.HashJoin:
		if b, ok := spinePass(x.Build, deg); ok {
			// The segment below ends here: gather it back to a serial
			// stream, the checkpoint boundary.
			x.Build = &plan.Exchange{Input: b, Degree: deg}
		}
		return x, true
	case *plan.IndexJoin:
		if o, ok := spinePass(x.Outer, deg); ok {
			x.Outer = &plan.Exchange{Input: o, Degree: deg}
		}
		return x, false // the index probe itself stays serial
	case *plan.Scan:
		return x, true // leaf segment: page-partitioned parallel scan
	default:
		return x, false
	}
}
