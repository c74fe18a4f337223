package plan

import (
	"fmt"

	"repro/internal/types"
)

// Exchange is a gather: it marks a parallel region. The subtree below it
// executes partitioned across Degree workers and the gather merges the
// partition streams (and their collector states) back into one serial
// stream. How tuples reach the workers inside the region — by a hash
// join's own keys, or in rotation for a partial aggregation — is the
// executor's business, read off the operators below.
//
// Exchange is cost- and estimate-transparent: Est delegates to the input
// node, so SCIA placement, Eq. 1/2 checkpoint arithmetic, and memory
// allocation see exactly the annotations they would on the serial plan.
type Exchange struct {
	Input  Node
	Degree int
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
func (x *Exchange) Describe() string { return fmt.Sprintf("gather x%d", x.Degree) }
