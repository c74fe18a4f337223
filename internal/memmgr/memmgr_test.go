package memmgr

import (
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/types"
)

// memNode is a minimal plan.Node for allocation tests.
type memNode struct {
	est      plan.Est
	children []plan.Node
	label    string
}

func (n *memNode) Schema() *types.Schema { return nil }

func newMem(min, max float64, children ...plan.Node) *memNode {
	return &memNode{est: plan.Est{MemMin: min, MemMax: max}, children: children}
}

// newStep builds an all-or-nothing consumer (a hash join).
func newStep(min, max float64, children ...plan.Node) *memNode {
	return &memNode{est: plan.Est{MemMin: min, MemMax: max, MemStep: true}, children: children}
}

func (n *memNode) Est() *plan.Est        { return &n.est }
func (n *memNode) Children() []plan.Node { return n.children }
func (n *memNode) Label() string         { return n.label }
func (n *memNode) Describe() string      { return "" }

const mb = 1 << 20

func TestFigure3Allocation(t *testing.T) {
	// The paper's Figure 3: two hash joins each demanding max 4.2MB /
	// min 250KB, aggregate max 4MB / min 1MB, budget 8MB. The first
	// join must get its max, the second its min, the aggregate the
	// leftover.
	join1 := newStep(0.25*mb, 4.2*mb)
	join2 := newStep(0.25*mb, 4.2*mb, join1)
	agg := newMem(1*mb, 4*mb, join2)

	New(8 * mb).Allocate(agg)

	if got := join1.est.Grant; got != 4.2*mb {
		t.Errorf("join1 grant = %.2fMB, want 4.2MB", got/mb)
	}
	if got := join2.est.Grant; got != 0.25*mb {
		t.Errorf("join2 grant = %.2fMB, want 0.25MB (minimum)", got/mb)
	}
	want := 8*mb - 4.2*mb - 0.25*mb
	if got := agg.est.Grant; got != want {
		t.Errorf("agg grant = %.2fMB, want leftover %.2fMB", got/mb, want/mb)
	}
}

func TestFigure3AfterImprovedEstimates(t *testing.T) {
	// After the collector observes 7500 tuples instead of 15000, the
	// second join's max demand halves to 2.05MB (after the first join
	// has finished and released its memory the budget is back to 8MB
	// minus nothing in this simplified re-allocation of the suffix),
	// and the Memory Manager can now satisfy it.
	join2 := newStep(0.25*mb, 2.05*mb)
	agg := newMem(1*mb, 4*mb, join2)
	New(8*mb).AllocateOps([]plan.Node{join2, agg}, 8*mb)
	if got := join2.est.Grant; got != 2.05*mb {
		t.Errorf("join2 grant after improvement = %.2fMB, want full 2.05MB", got/mb)
	}
}

func TestAllocateRespectsBudgetWhenPossible(t *testing.T) {
	a := newMem(1*mb, 10*mb)
	b := newMem(1*mb, 10*mb, a)
	New(5 * mb).Allocate(b)
	total := a.est.Grant + b.est.Grant
	if total > 5*mb {
		t.Errorf("allocated %.2fMB over a 5MB budget", total/mb)
	}
	if a.est.Grant < b.est.Grant {
		t.Error("earlier operator did not get priority")
	}
}

func TestAllocateOvercommitsOnlyToMinimums(t *testing.T) {
	a := newMem(4*mb, 10*mb)
	b := newMem(4*mb, 10*mb, a)
	New(5 * mb).Allocate(b)
	if a.est.Grant != 4*mb || b.est.Grant != 4*mb {
		t.Errorf("grants = %.1f/%.1f MB, want minimums", a.est.Grant/mb, b.est.Grant/mb)
	}
}

func TestConsumersSkipsStreamingOps(t *testing.T) {
	scan := newMem(0, 0)
	join := newMem(1, 2, scan)
	top := newMem(0, 0, join)
	got := Consumers(top)
	if len(got) != 1 || got[0] != plan.Node(join) {
		t.Errorf("Consumers = %v", got)
	}
}

func TestConsumersExecutionOrder(t *testing.T) {
	// Left-deep: deepest join first.
	j1 := newMem(1, 10)
	j1.label = "j1"
	j2 := newMem(1, 10, j1)
	j2.label = "j2"
	agg := newMem(1, 10, j2)
	agg.label = "agg"
	got := Consumers(agg)
	if len(got) != 3 || got[0].Label() != "j1" || got[2].Label() != "agg" {
		labels := make([]string, len(got))
		for i, n := range got {
			labels[i] = n.Label()
		}
		t.Errorf("order = %v", labels)
	}
}

func TestAllocateProperty(t *testing.T) {
	// Properties: grant >= min(MemMin, MemMax); grant <= MemMax; total
	// <= max(budget, sum of minimums); monotone priority — an earlier
	// op's shortfall implies every later op is at its minimum.
	f := func(mins, maxs [4]uint16, budgetRaw uint32) bool {
		ops := make([]plan.Node, 0, 4)
		for i := 0; i < 4; i++ {
			mn := float64(mins[i])
			mx := mn + float64(maxs[i])
			if mx <= 0 {
				continue
			}
			ops = append(ops, newMem(mn, mx))
		}
		if len(ops) == 0 {
			return true
		}
		budget := float64(budgetRaw % 200000)
		New(budget).AllocateOps(ops, budget)
		total, minSum := 0.0, 0.0
		for _, op := range ops {
			e := op.Est()
			if e.Grant < e.MemMin && e.Grant < e.MemMax {
				return false
			}
			if e.Grant > e.MemMax {
				return false
			}
			total += e.Grant
			minSum += e.MemMin
		}
		limit := budget
		if minSum > limit {
			limit = minSum
		}
		if total > limit+1e-6 {
			return false
		}
		// Priority: once an op is below max, all later ops are at min.
		starved := false
		for _, op := range ops {
			e := op.Est()
			if starved && e.Grant > e.MemMin {
				return false
			}
			if e.Grant < e.MemMax {
				starved = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
