package reopt

import (
	"fmt"

	"repro/internal/plan"
)

// chainStep is one segment boundary of a left-deep plan: a join plus the
// streaming operators (collectors, residual filters) stacked on its
// output.
type chainStep struct {
	join     plan.Node   // *plan.HashJoin or *plan.IndexJoin
	wrappers []plan.Node // bottom-up: nearest to the join first
}

// top returns the step's topmost plan node.
func (s chainStep) top() plan.Node {
	if len(s.wrappers) > 0 {
		return s.wrappers[len(s.wrappers)-1]
	}
	return s.join
}

// decomposed is the dispatcher's view of a plan: top operators, the join
// chain in execution order, and the leftmost leaf pipeline.
type decomposed struct {
	tops    []plan.Node // root-first: [Limit, Sort, Project, Agg] as present
	steps   []chainStep // execution order: deepest join first
	leafTop plan.Node   // top of the leftmost pipeline (scan + wrappers)
}

// decompose splits a plan produced by the optimizer (plus SCIA
// collectors) into the dispatcher's segments.
func decompose(root plan.Node) (*decomposed, error) {
	d := &decomposed{}
	cur := root
	for {
		switch x := cur.(type) {
		case *plan.Project, *plan.Agg, *plan.Sort, *plan.Limit:
			d.tops = append(d.tops, cur)
			cur = cur.Children()[0]
			continue
		case *plan.Exchange:
			// A parallel aggregation cluster — gather{agg{input}} — is
			// one top operator: the gather builds the whole partial/final
			// split, so the walk records the cluster and resumes below
			// the agg.
			if agg, ok := x.Input.(*plan.Agg); ok {
				d.tops = append(d.tops, x)
				cur = agg.Input
				continue
			}
		}
		break
	}
	// Walk the left spine top-down, accumulating wrappers until the next
	// join or the leaf scan.
	var stepsTopDown []chainStep
	var pending []plan.Node // wrappers seen top-down
	for {
		switch x := cur.(type) {
		case *plan.Collector:
			pending = append(pending, x)
			cur = x.Input
		case *plan.Filter:
			pending = append(pending, x)
			cur = x.Input
		case *plan.Exchange:
			// A gather above a step (or the leaf pipeline) is a wrapper:
			// step.top() must be the gather so the dispatcher builds the
			// whole parallel segment as one operator.
			pending = append(pending, x)
			cur = x.Input
		case *plan.HashJoin:
			stepsTopDown = append(stepsTopDown, chainStep{join: x, wrappers: reverseNodes(pending)})
			pending = nil
			cur = x.Build
		case *plan.IndexJoin:
			stepsTopDown = append(stepsTopDown, chainStep{join: x, wrappers: reverseNodes(pending)})
			pending = nil
			cur = x.Outer
		case *plan.Scan:
			if len(pending) > 0 {
				d.leafTop = pending[0] // topmost wrapper above the scan
			} else {
				d.leafTop = x
			}
			// Reverse the top-down step list into execution order.
			for i := len(stepsTopDown) - 1; i >= 0; i-- {
				d.steps = append(d.steps, stepsTopDown[i])
			}
			return d, nil
		default:
			return nil, fmt.Errorf("reopt: unexpected %T on left spine", cur)
		}
	}
}

func reverseNodes(ns []plan.Node) []plan.Node {
	out := make([]plan.Node, len(ns))
	for i, n := range ns {
		out[len(ns)-1-i] = n
	}
	return out
}

// unwrapTop resolves a tops entry to its logical operator: a parallel
// aggregation cluster (gather{agg{input}}) stands in for its Agg; every
// other entry is itself.
func unwrapTop(n plan.Node) plan.Node {
	if x, ok := n.(*plan.Exchange); ok {
		if agg, ok := x.Input.(*plan.Agg); ok {
			return agg
		}
	}
	return n
}

// stepTopNode returns the node whose output feeds step k+1 (or the tops
// when k is the last step); k == -1 means the leaf pipeline.
func (d *decomposed) stepTopNode(k int) plan.Node {
	if k < 0 {
		return d.leafTop
	}
	return d.steps[k].top()
}
