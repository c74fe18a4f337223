package exec

import (
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/types"
)

// IndexJoin is an indexed nested-loops join: for every outer tuple it
// probes the inner table's B+tree and fetches matching tuples by RID
// through the engine's one RID-fetch loop (keyReader), testing the inner
// filters on the columns they read and decoding only the node's
// InnerCols, as a scan does. Each probe charges one index-leaf read plus
// the heap-page reads the fetches incur (cached pages are free), which
// is why the optimizer prefers it only when the outer side is small.
type IndexJoin struct {
	node  *plan.IndexJoin
	outer Operator
	ctx   *Ctx
	inner keyReader
	mem   types.Arena // what joined outputs are carved from

	opened bool
	closed bool
	cur    types.Tuple // current outer tuple; nil between probes
	done   bool
}

// NewIndexJoin builds an index join. The inner table must have an index
// on the join column.
func NewIndexJoin(n *plan.IndexJoin, outer Operator, ctx *Ctx) (*IndexJoin, error) {
	// A join charges the tuples it joins, as its price counts them, not
	// the versions it fetched: its fetches only poll cancellation.
	inner, err := newKeyReader(n.Table, n.InnerCol, n.InnerFilters, n.InnerCols, ctx, nil)
	if err != nil {
		return nil, err
	}
	return &IndexJoin{node: n, outer: outer, ctx: ctx, inner: inner}, nil
}

// Schema implements Operator.
func (j *IndexJoin) Schema() *types.Schema { return j.node.Schema() }

// Open implements Operator. It is idempotent (see HashJoin.Open). The
// outer side is lent: an outer tuple is let go of before the next one is
// asked for.
func (j *IndexJoin) Open() error {
	if j.opened {
		return nil
	}
	j.opened = true
	Lend(j.outer)
	return j.outer.Open()
}

// Next implements Operator.
func (j *IndexJoin) Next() (types.Tuple, error) {
	for {
		if j.cur != nil {
			inner, err := j.inner.next()
			if err != nil {
				return nil, err
			}
			if inner != nil {
				j.ctx.Meter.ChargeTuples(1)
				return j.mem.Concat(j.cur, inner), nil
			}
			j.cur = nil
		}
		if j.done {
			return nil, nil
		}
		if err := j.ctx.Tick(); err != nil {
			return nil, err
		}
		if err := faultinject.Hit("exec.indexjoin.outer"); err != nil {
			return nil, err
		}
		t, err := j.outer.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			j.done = true
			return nil, j.outer.Close()
		}
		j.ctx.Meter.ChargeTuples(1)
		key := t[j.node.OuterKey]
		if key.IsNull() {
			continue
		}
		j.cur = t
		j.inner.probe(key)
	}
}

// Close implements Operator. Idempotent; cascades to the outer input so
// an abort mid-join releases its side state too.
func (j *IndexJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.inner.rids = nil
	return j.outer.Close()
}
