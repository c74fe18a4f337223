package exec

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// IndexJoin is an indexed nested-loops join: for every outer tuple it
// probes the inner table's B+tree and fetches matching tuples by RID,
// testing the inner filters on the columns they read and decoding only
// the node's InnerCols, as a scan does. Each probe charges one
// index-leaf read plus the heap-page reads the fetches incur (cached
// pages are free), which is why the optimizer prefers it only when the
// outer side is small.
type IndexJoin struct {
	node  *plan.IndexJoin
	outer Operator
	ctx   *Ctx
	idx   *storage.BTree
	inner *storage.HeapFetcher
	mem   types.Arena // what joined outputs are carved from

	opened bool
	closed bool
	cur    types.Tuple // current outer tuple
	rids   []storage.RID
	ridPos int
	done   bool
}

// NewIndexJoin builds an index join. The inner table must have an index
// on the join column.
func NewIndexJoin(n *plan.IndexJoin, outer Operator, ctx *Ctx) (*IndexJoin, error) {
	idx, ok := n.Table.Indexes[n.InnerCol]
	if !ok {
		return nil, fmt.Errorf("exec: no index on %s column %d", n.Table.Name, n.InnerCol)
	}
	j := &IndexJoin{node: n, outer: outer, ctx: ctx, idx: idx.Tree}
	j.inner = n.Table.Heap.Fetcher(ctx.Meter).WithColumns(n.InnerCols)
	if f := plan.CompileFilter(n.InnerFilters, ctx.Params); f != nil {
		j.inner.WithFilter(f)
	}
	return j, nil
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
		for j.ridPos < len(j.rids) {
			rid := j.rids[j.ridPos]
			j.ridPos++
			// Visibility-checked fetch: index entries may point at
			// versions outside the snapshot, deleted slots from aborted
			// inserts, or swept versions — all skipped here, like the
			// versions the inner filters reject.
			inner, ok, err := j.inner.FetchVisible(rid, j.ctx.Snap)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			j.ctx.Meter.ChargeTuples(1)
			return j.mem.Concat(j.cur, inner), nil
		}
		if j.done {
			return nil, nil
		}
		j.cur = nil
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
		j.rids = j.idx.Lookup(key)
		j.ridPos = 0
	}
}

// Close implements Operator. Idempotent; cascades to the outer input so
// an abort mid-join releases its side state too.
func (j *IndexJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.rids = nil
	return j.outer.Close()
}
