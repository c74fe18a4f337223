package plan

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// ExchangeMode selects how an exchange operator moves tuples between the
// serial stream and its parallel workers, after the Volcano exchange
// operator family.
type ExchangeMode uint8

const (
	// ExGather merges the partition streams of the subtree below into
	// one serial stream, combining the workers' statistics-collector
	// states into a single report at the merge point.
	ExGather ExchangeMode = iota
	// ExHash partitions tuples across workers by a hash of Keys, so
	// equal join keys always land on the same worker.
	ExHash
	// ExRoundRobin deals tuples to workers in rotation; used where any
	// partitioning is correct (partial aggregation).
	ExRoundRobin
)

var exchangeModeNames = [...]string{"gather", "hash", "round-robin"}

// String implements fmt.Stringer.
func (m ExchangeMode) String() string {
	if int(m) < len(exchangeModeNames) {
		return exchangeModeNames[m]
	}
	return fmt.Sprintf("exchange-mode(%d)", int(m))
}

// Exchange is a Volcano-style exchange operator. An ExGather node marks a
// parallel region: the subtree below it executes partitioned across
// Degree workers and the gather point merges the partition streams (and
// their collector states) back into one serial stream. ExHash and
// ExRoundRobin nodes annotate the partitioning applied to a parallel
// region's inputs — they are consumed by the enclosing gather's builder
// and never execute on their own.
//
// Exchange is cost- and estimate-transparent: Est delegates to the input
// node, so SCIA placement, Eq. 1/2 checkpoint arithmetic, and memory
// allocation see exactly the annotations they would on the serial plan.
type Exchange struct {
	Input  Node
	Degree int
	Mode   ExchangeMode
	// Keys are the partitioning columns for ExHash, ordinals into
	// Input.Schema().
	Keys []int
}

// Schema implements Node.
func (x *Exchange) Schema() *types.Schema { return x.Input.Schema() }

// Children implements Node.
func (x *Exchange) Children() []Node { return []Node{x.Input} }

// Est implements Node by delegating to the input: the exchange adds no
// rows, bytes, or modeled cost of its own, and sharing the annotation
// keeps the two views consistent when the dispatcher scales estimates
// mid-query.
func (x *Exchange) Est() *Est { return x.Input.Est() }

// Label implements Node.
func (x *Exchange) Label() string { return "exchange" }

// Describe implements Node.
func (x *Exchange) Describe() string {
	d := fmt.Sprintf("%s x%d", x.Mode, x.Degree)
	if x.Mode == ExHash && len(x.Keys) > 0 {
		sch := x.Input.Schema()
		parts := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			parts[i] = sch.Columns[k].QualifiedName()
		}
		d += " on " + strings.Join(parts, ", ")
	}
	return d
}

// StripPartition unwraps partitioning-only exchange nodes (ExHash,
// ExRoundRobin) from the top of a subtree. Gather nodes are left in
// place — they delimit executable parallel regions.
func StripPartition(n Node) Node {
	for {
		x, ok := n.(*Exchange)
		if !ok || x.Mode == ExGather {
			return n
		}
		n = x.Input
	}
}
