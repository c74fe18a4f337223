// Package exec implements the query execution engine: iterator-model
// operators (sequential scan, hash join with Grace-style spilling,
// indexed nested-loops join, hash aggregation, external sort, projection,
// limit) plus the paper's statistics-collector operator.
//
// Operators charge their work to the context's cost meter: page I/O flows
// through the storage layer automatically, and each operator charges
// per-tuple CPU. The statistics collector charges the cheaper StatCPU
// rate, which is what the SCIA's μ budget limits (§2.5).
package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// CancelCheckInterval is how many Tick calls elapse between context
// polls. Cancellation is detected within this many tuples of the cancel,
// which bounds abort latency without putting an atomic load on every
// tuple. Every operator loop — serial or parallel-worker — shares this
// one cadence; the cancellation tests assert against it, so exchange
// worker loops cannot drift to a different interval.
const CancelCheckInterval = 256

// Ctx carries the runtime environment shared by a query's operators.
// Each parallel worker gets its own Ctx (the tick counter is not atomic);
// the exchange subsystem derives worker contexts from the query's.
type Ctx struct {
	Pool   *storage.BufferPool
	Meter  *storage.CostMeter
	Params plan.Params
	// Snap is the MVCC snapshot base-table scans and index fetches
	// filter versions through. Nil means "see all undeleted tuples",
	// which is correct only when no writers run concurrently.
	Snap *storage.TxnSnapshot
	// Txn is the write transaction DML operators run under. Nil for
	// read-only queries.
	Txn *catalog.Txn
	// Context, when non-nil, aborts the query: operators poll it at
	// amortized intervals (Tick) inside their tuple loops and the
	// dispatcher polls it (Err) at every checkpoint, so a cancelled or
	// deadline-expired query stops at the next well-defined point.
	Context context.Context
	// CheckEvery overrides the tuple interval between context polls
	// (tests lower it for tight abort bounds); 0 uses the default.
	CheckEvery int
	ticks      int
	// StatsSink receives each statistics-collector's report the moment
	// its input is exhausted. The re-optimizing dispatcher wires this
	// to its decision logic; nil sinks discard reports.
	StatsSink func(*plan.Observed)
	// StateSink, when set, diverts statistics collectors' raw mergeable
	// states instead of finished Observed reports. Exchange gather
	// points set it on worker contexts so per-partition states can be
	// merged into one report before reaching StatsSink.
	StateSink func(*CollectorState)
	// Part and PartOf place this context's operators in a partitioned
	// parallel region: leaf scans read only pages ≡ Part mod PartOf.
	// PartOf ≤ 1 means unpartitioned (serial) execution.
	Part, PartOf int
	// GrantShare scales memory-consuming operators' grants (0 means
	// full grant): a parallel region splits its operator's broker-backed
	// grant across workers, each building 1/N of the tuples.
	GrantShare float64
	// Workers counts the goroutines the query's exchange regions start.
	// The dispatcher installs it at degree 2 and above and reports it as
	// Stats.WorkersSpawned; nil counts nothing.
	Workers *atomic.Int64
	// Trace, when non-nil, receives lifecycle events (collector
	// reports, dispatcher decisions). Nil disables tracing at the cost
	// of a nil check.
	Trace *obs.Trace
	// Prog, when non-nil, is the query's per-operator record: every
	// built operator is wrapped to flush row counts and spill bytes
	// into it on an amortized cadence, so concurrent observers (system
	// tables, /progress) can watch the query without perturbing it. A
	// timed Prog also records each operator's cost and peak memory for
	// EXPLAIN ANALYZE. Nil skips wrapping entirely.
	Prog *obs.Progress
}

// grantShare returns the fraction of a node's memory grant available to
// this context's operators.
func (c *Ctx) grantShare() float64 {
	if c.GrantShare > 0 {
		return c.GrantShare
	}
	return 1
}

// Tick is the operators' amortized cancellation check: every tuple loop
// calls it, and every CheckEvery'th call polls the context. A query's
// operators all share one Ctx on one goroutine, so a plain counter
// suffices. Returns the context's error once the query is cancelled or
// past its deadline.
func (c *Ctx) Tick() error {
	if c.Context == nil {
		return nil
	}
	every := c.CheckEvery
	if every <= 0 {
		every = CancelCheckInterval
	}
	if c.ticks++; c.ticks < every {
		return nil
	}
	c.ticks = 0
	return c.Context.Err()
}

// Err polls the context immediately (checkpoint and plan-switch
// boundaries, where the check is rare enough not to amortize).
func (c *Ctx) Err() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// Operator is a Volcano-style iterator. Next returns a nil tuple at end
// of stream. Operators are single-use: Open, drain, Close.
//
// A tuple returned by Next is immutable and the caller's to keep: no
// operator writes to a tuple after returning it, nor to one it was
// handed, so a hash table, a sort buffer, a pending output or an exchange
// chunk holds its input tuples as they came, without copying them. An
// operator that wants different values builds a new tuple (a join's
// output, Project, an aggregate's output), carved, strings included, from
// a types.Arena; what a kept tuple costs is that it pins its block.
//
// The exception is lending, and the consumer decides it: an operator
// that keeps no input tuple past its next call to its input's Next — Agg,
// a HashJoin's probe, Project, IndexJoin's outer side, an exchange
// producer whose queue's reader is one of those — calls Lend on the input
// before opening it. Three kinds of operator honour the promise. A scan
// clears a page's tuples when it loads the next and carves the new ones
// from the same Values block. A HashJoin does the same with the outputs
// of one probe tuple once it has emitted them all. An exchange
// (internal/exchange's gather and the queue reader of its worker
// pipelines) carries the values in a chunk's block, which is cleared and
// reused once the reader has moved past the chunk. Either way a broken
// promise reads NULLs or other rows, never quietly stale values. Strings
// are never recycled. Everything else keeps the default.
//
// The partitions an operator spills are its own, read back through
// scanners it re-aims file after file (storage.HeapScanner.Reset), and
// the same rule holds there with a file for a call: a HashJoin's probe
// partitions and an Agg's merged ones are lent, and a HashJoin clears a
// build partition's tuples, which its table held, before the next
// partition's are carved from their block. Its outputs are copies.
type Operator interface {
	Open() error
	Next() (types.Tuple, error)
	Close() error
	Schema() *types.Schema
}

// Lend records that op's consumer keeps no tuple past its next call to
// op.Next, and reports whether an operator that honours the promise — one
// that will reuse the memory of the tuples it hands out — was reached, so
// that a consumer which must hold tuples a while (an exchange producer,
// whose chunks wait in a queue) copies them only when that frees
// something. It walks down through the operators that pass their input's
// tuples on as they are to the one that mints them: a heap scan, which
// makes use of the promise only if it has not opened yet, or an operator
// that implements Lend — a HashJoin before its probe phase, the
// exchange's gather and queue reader. It leaves anything else alone.
func Lend(op Operator) bool {
	for {
		switch o := op.(type) {
		case *observedOp:
			op = o.op
		case *Collector:
			op = o.in
		case *Filter:
			op = o.in
		case *Limit:
			op = o.in
		case *SeqScan:
			o.lent = true
			return o.node.Table.Virtual == nil
		case interface{ Lend() bool }:
			return o.Lend()
		default:
			return false
		}
	}
}

// Drain pulls every tuple from an opened operator, discarding output, and
// returns the row count. It is used by tests and by blocking consumers.
func Drain(op Operator) (int64, error) {
	var n int64
	for {
		t, err := op.Next()
		if err != nil {
			return n, err
		}
		if t == nil {
			return n, nil
		}
		n++
	}
}

// Collect runs an operator tree to completion and returns all output
// tuples. Open and Close are handled internally.
func Collect(op Operator) ([]types.Tuple, error) {
	if err := op.Open(); err != nil {
		// Close even after a failed Open: blocking operators (agg,
		// sort, hash join) may have spilled partitions to temp heap
		// files before the error, and Close is the only hook that
		// drops them. All operators' Close is idempotent and safe
		// after a partial Open.
		op.Close()
		return nil, err
	}
	defer op.Close()
	var out []types.Tuple
	for {
		t, err := op.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// BuildStep instantiates the operator for a single plan node whose first
// (left) child operator has already been built. The re-optimizing
// dispatcher uses it to assemble the join chain step by step, opening
// each hash join's build phase eagerly so it can make decisions at the
// paper's mid-query checkpoints. Probe sides and other inputs are built
// recursively as usual.
func BuildStep(n plan.Node, left Operator, ctx *Ctx) (Operator, error) {
	op, err := buildStep(n, left, ctx)
	if err != nil {
		return nil, err
	}
	return instrument(op, n, ctx), nil
}

func buildStep(n plan.Node, left Operator, ctx *Ctx) (Operator, error) {
	switch x := n.(type) {
	case *plan.HashJoin:
		probe, err := Build(x.Probe, ctx)
		if err != nil {
			return nil, err
		}
		return NewHashJoin(x, left, probe, ctx), nil
	case *plan.IndexJoin:
		return NewIndexJoin(x, left, ctx)
	case *plan.Collector:
		return NewCollector(x, left, ctx), nil
	case *plan.Filter:
		return NewFilter(x, left, ctx), nil
	case *plan.Agg:
		return NewAgg(x, left, ctx), nil
	case *plan.Project:
		return NewProject(x, left, ctx), nil
	case *plan.Sort:
		return NewSort(x, left, ctx), nil
	case *plan.Limit:
		return NewLimit(x, left), nil
	case *plan.Exchange:
		return ExchangeBuilder(x, left, ctx)
	default:
		return nil, fmt.Errorf("exec: BuildStep cannot wrap %T", n)
	}
}

// ExchangeBuilder instantiates the operator for an exchange plan node.
// It is installed by internal/exchange's init function — exec cannot
// import that package directly (exchange builds worker pipelines through
// exec). left is the already-built serial input for the step-wise
// dispatch path, nil when the exchange's whole subtree should be built
// from the plan.
var ExchangeBuilder func(x *plan.Exchange, left Operator, ctx *Ctx) (Operator, error)

// Build instantiates the operator tree for a physical plan.
func Build(n plan.Node, ctx *Ctx) (Operator, error) {
	op, err := build(n, ctx)
	if err != nil {
		return nil, err
	}
	return instrument(op, n, ctx), nil
}

func build(n plan.Node, ctx *Ctx) (Operator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return NewSeqScan(x, ctx), nil
	case *plan.Exchange:
		return ExchangeBuilder(x, nil, ctx)
	}
	// Every other node is a step over its first child: build that from
	// the plan, then the step over it.
	kids := n.Children()
	if len(kids) == 0 {
		return nil, fmt.Errorf("exec: no operator for plan node %T", n)
	}
	left, err := Build(kids[0], ctx)
	if err != nil {
		return nil, err
	}
	return buildStep(n, left, ctx)
}
