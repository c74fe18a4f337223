package obs

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/plan"
)

// opCost is the part of an operator's record only EXPLAIN ANALYZE reads:
// inclusive simulated cost (the operator and its whole subtree), peak
// operator memory where the operator reports it, and the parallel-worker
// rollup recorded at gather points — how many workers ran under the node,
// the slowest worker's cost and the largest worker's peak memory. Only a
// timed Progress allocates it. Parallel clones of one plan node share it,
// so writes take the mutex; the renderer reads it after the query's
// workers have joined.
type opCost struct {
	mu            sync.Mutex
	cost          float64
	mem           float64
	workers       int
	maxWorkerCost float64
	maxWorkerMem  float64
}

// AddCost adds inclusive simulated cost. Safe for concurrent use by
// parallel workers sharing the node; a no-op unless the query is timed.
func (o *OpProgress) AddCost(c float64) {
	if a := o.act; a != nil {
		a.mu.Lock()
		a.cost += c
		a.mu.Unlock()
	}
}

// RecordMem raises the peak-memory high-water mark of a timed operator.
func (o *OpProgress) RecordMem(m float64) {
	if a := o.act; a != nil {
		a.mu.Lock()
		a.mem = max(a.mem, m)
		a.mu.Unlock()
	}
}

// RecordWorker folds one parallel worker's totals into a timed node's
// rollup: worker count, critical-path (max) worker cost, and max worker
// peak memory.
func (o *OpProgress) RecordWorker(cost, mem float64) {
	if a := o.act; a != nil {
		a.mu.Lock()
		a.workers++
		a.maxWorkerCost = max(a.maxWorkerCost, cost)
		a.maxWorkerMem = max(a.maxWorkerMem, mem)
		a.mu.Unlock()
	}
}

// lookup returns a node's record, or nil if it was never registered.
func (p *Progress) lookup(n plan.Node) *OpProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ops[n]
}

// cost returns a node's inclusive measured cost; zero for nodes that
// never executed.
func (p *Progress) cost(n plan.Node) float64 {
	if o := p.lookup(n); o != nil && o.act != nil {
		return o.act.cost
	}
	return 0
}

// SelfCost returns a node's own measured cost: its inclusive cost minus
// its children's. Zero for nodes that never executed and on an untimed
// Progress.
func (p *Progress) SelfCost(n plan.Node) float64 {
	self := p.cost(n)
	for _, c := range n.Children() {
		self -= p.cost(c)
	}
	return max(self, 0)
}

// TotalSelfCost sums every executed operator's self cost across all
// registered plans — it should match the query's metered cost.
func (p *Progress) TotalSelfCost() float64 {
	var total float64
	for _, root := range p.plans() {
		plan.Walk(root, func(n plan.Node) {
			total += p.SelfCost(n)
		})
	}
	return total
}

// plans returns the registered plan roots in execution order.
func (p *Progress) plans() []plan.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]plan.Node(nil), p.roots...)
}

// Render produces the EXPLAIN ANALYZE report of a timed Progress: each
// executed plan in order, every operator annotated with its estimates
// and — where it ran — its actuals. A scan of a temp table in a
// re-optimized remainder is the splice point of the plan switch that
// produced it and is marked "[re-optimized here]". Empty when the
// Progress is nil or untimed.
func (p *Progress) Render() string {
	if !p.Timed() {
		return ""
	}
	var b strings.Builder
	for i, root := range p.plans() {
		if i == 0 {
			b.WriteString("plan 1 (initial):\n")
		} else {
			fmt.Fprintf(&b, "plan %d (re-optimized remainder):\n", i+1)
		}
		p.render(&b, root, 1)
	}
	return b.String()
}

func (p *Progress) render(b *strings.Builder, n plan.Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	writeEstimates(b, n)
	if o := p.lookup(n); o != nil && (o.Rows() > 0 || o.act.cost > 0) {
		a := o.act
		fmt.Fprintf(b, " (actual rows=%d time=%.1f", o.Rows(), p.SelfCost(n))
		if a.mem > 0 {
			fmt.Fprintf(b, " mem=%.0f", a.mem)
		}
		if a.workers > 0 {
			fmt.Fprintf(b, " workers=%d max-worker-time=%.1f", a.workers, a.maxWorkerCost)
			if a.maxWorkerMem > 0 {
				fmt.Fprintf(b, " max-worker-mem=%.0f", a.maxWorkerMem)
			}
		}
		b.WriteByte(')')
	} else {
		b.WriteString(" (never executed)")
	}
	if s, ok := n.(*plan.Scan); ok && s.Table != nil && s.Table.Temp {
		b.WriteString(" [re-optimized here]")
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		p.render(b, c, depth+1)
	}
}

// writeEstimates renders one node's optimizer annotations: label,
// arguments, estimated rows, output size, cumulative cost, and memory
// demands/grant where the operator consumes memory.
func writeEstimates(b *strings.Builder, n plan.Node) {
	e := n.Est()
	fmt.Fprintf(b, "%s [%s] (est rows=%.0f bytes=%.0f cost=%.1f",
		n.Label(), n.Describe(), e.Rows, e.Bytes, e.Cost)
	if e.MemMax > 0 {
		fmt.Fprintf(b, " mem=%.0f..%.0f", e.MemMin, e.MemMax)
		if e.Grant > 0 {
			fmt.Fprintf(b, " grant=%.0f", e.Grant)
		}
	}
	b.WriteByte(')')
}

// FormatPlan renders an annotated plan with per-operator estimated
// rows, size, cost, and memory — the EXPLAIN (without ANALYZE) view.
func FormatPlan(root plan.Node) string {
	var b strings.Builder
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		writeEstimates(&b, n)
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}
