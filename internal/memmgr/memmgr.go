// Package memmgr implements the Memory Manager: it turns the optimizer's
// per-operator memory demand estimates (MemMin, MemMax annotations) into
// memory grants under a per-query budget, exactly as in the paper's
// Figure 3 walk-through — the first memory-consuming operator in
// execution order is topped up toward its maximum first, later operators
// fall back to their minimums, and any leftover flows to whoever still
// wants it.
//
// Dynamic re-allocation (§2.3) is the same algorithm re-run over the
// operators that have not yet started executing, with their demands
// recomputed from improved estimates and the budget reduced by memory
// still held by running operators.
package memmgr

import (
	"math"

	"repro/internal/plan"
)

// Manager allocates operator memory under a fixed per-query budget in
// bytes.
type Manager struct {
	Budget float64
}

// New returns a manager with the given byte budget.
func New(budget float64) *Manager { return &Manager{Budget: budget} }

// Consumers returns the memory-consuming nodes of a plan in execution
// order. For the engine's left-deep plans, post-order traversal visits
// operators in the order their memory is first needed: the deepest
// join's build phase runs first.
func Consumers(root plan.Node) []plan.Node {
	var out []plan.Node
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		if n.Est().MemMax > 0 {
			out = append(out, n)
		}
	}
	walk(root)
	return out
}

// Allocate assigns a memory grant to every memory-consuming node of the
// plan. Every operator receives at least its minimum (over-committing
// the budget if the minimums alone exceed it, as real systems must);
// remaining budget tops operators up toward their maximums in execution
// order.
func (m *Manager) Allocate(root plan.Node) {
	m.AllocateOps(Consumers(root), m.Budget)
}

// AllocateOps runs the allocation policy over an explicit operator list
// (already in execution order) under the given budget, and returns the
// bytes it moved: Σ|new grant − old grant|. The re-optimizer calls this
// directly for the not-yet-started suffix of a plan.
func (m *Manager) AllocateOps(ops []plan.Node, budget float64) (moved float64) {
	remaining := budget
	for _, op := range ops {
		e := op.Est()
		remaining -= math.Min(e.MemMin, e.MemMax)
	}
	for _, op := range ops {
		e := op.Est()
		grant := math.Min(e.MemMin, e.MemMax)
		// Top up in execution order while budget remains. All-or-nothing
		// (MemStep): partial memory does not save the operator's extra
		// pass, so don't waste budget on it.
		if want := e.MemMax - grant; want > 0 && remaining > 0 && (!e.MemStep || want <= remaining) {
			want = math.Min(want, remaining)
			grant += want
			remaining -= want
		}
		moved += math.Abs(grant - e.Grant)
		e.Grant = grant
	}
	return moved
}

// SplitGrant divides one operator's broker-backed memory grant across
// the workers of a parallel region, returning each worker's fraction of
// the whole (a multiplier for the grant, not bytes). Hash partitioning
// sends each worker ~1/N of the build tuples, so an even split preserves
// the all-or-nothing MemStep semantics: if the serial operator fit in
// its grant, every worker's partition fits in its share.
func SplitGrant(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return 1 / float64(workers)
}
