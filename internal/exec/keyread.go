package exec

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// keyReader is the engine's one RID-fetch loop. A B+tree probe of one
// key, or a scan of a key range, appends RIDs into a slice the reader
// reuses; next fetches them in turn under the snapshot through a heap
// fetcher, which tests the compiled filters on the record where it lies
// and decodes only the kept columns. An index scan, the match of an
// UPDATE or DELETE, and an index join's inner side all read through
// one. For each fetched RID an index scan and a DML match poll
// cancellation and charge the tuple, as a seq scan does a record it
// examines; an index join, which charges the tuples it joins, only polls.
//
// The RIDs are collected before any is fetched, so no heap lock is
// taken under the tree's, and a statement that writes the table after
// matching never sees its own new versions.
type keyReader struct {
	ctx     *Ctx
	tree    *storage.BTree
	fetch   *storage.HeapFetcher
	snap    *storage.TxnSnapshot
	examine func() error // per fetched RID; nil only polls cancellation
	rids    []storage.RID
	pos     int
	rid     storage.RID // where the tuple next returned last lives
}

// newKeyReader returns a reader of t through its index on col, applying
// filters and keeping cols (nil = every column).
func newKeyReader(t *catalog.Table, col int, filters []plan.Pred, cols []int, ctx *Ctx, examine func() error) (keyReader, error) {
	idx, ok := t.Indexes[col]
	if !ok {
		return keyReader{}, fmt.Errorf("exec: no index on %s column %d", t.Name, col)
	}
	r := keyReader{ctx: ctx, tree: idx.Tree, snap: ctx.Snap, examine: examine}
	r.fetch = t.Heap.Fetcher(ctx.Meter).WithColumns(cols)
	if f := plan.CompileFilter(filters, ctx.Params); f != nil {
		r.fetch.WithFilter(f)
	}
	return r, nil
}

// probe positions the reader at the entries of key k.
func (r *keyReader) probe(k types.Value) {
	r.rids, r.pos = r.tree.Lookup(k, r.ctx.Meter, r.rids[:0]), 0
}

// scan positions the reader at the entries of a key range, its bounds
// evaluated under the query's host variables. A NULL bound leaves
// nothing to read: the filter it came from fails on every row. A float
// NaN bound, which compares equal to every key, bounds nothing.
func (r *keyReader) scan(k *plan.KeyRange) error {
	r.rids, r.pos = r.rids[:0], 0
	lo, none, err := r.bound(k.Lo)
	if err != nil || none {
		return err
	}
	hi, none, err := r.bound(k.Hi)
	if err != nil || none {
		return err
	}
	if k.Eq() && !lo.IsNull() {
		r.probe(lo)
		return nil
	}
	r.tree.Range(lo, hi, r.ctx.Meter, func(key types.Value, rids []storage.RID) bool {
		if !k.HiIncl && !hi.IsNull() && key.Compare(hi) == 0 {
			return false
		}
		if k.LoIncl || lo.IsNull() || key.Compare(lo) != 0 {
			r.rids = append(r.rids, rids...)
		}
		return true
	})
	return nil
}

// bound evaluates one bound of a range: NULL when it bounds nothing,
// none when nothing can be in range.
func (r *keyReader) bound(e plan.Expr) (v types.Value, none bool, err error) {
	if e == nil {
		return types.Null(), false, nil
	}
	if v, err = e.Eval(nil, r.ctx.Params); err != nil || v.IsNull() {
		return v, err == nil, err
	}
	if v.Kind() == types.KindFloat && math.IsNaN(v.Float()) {
		return types.Null(), false, nil
	}
	return v, false, nil
}

// next returns the next fetched version the snapshot sees and the
// filters pass, nil after the last.
func (r *keyReader) next() (types.Tuple, error) {
	for r.pos < len(r.rids) {
		rid := r.rids[r.pos]
		r.pos++
		var err error
		if r.examine != nil {
			err = r.examine()
		} else {
			err = r.ctx.Tick()
		}
		if err != nil {
			return nil, err
		}
		// Entries may point at versions outside the snapshot, at the
		// deleted slot of an aborted insert, or at a swept version not
		// yet pruned: all are skipped, like the versions the filters
		// reject.
		tup, ok, err := r.fetch.FetchVisible(rid, r.snap)
		if err != nil {
			return nil, err
		}
		if ok {
			r.rid = rid
			return tup, nil
		}
	}
	return nil, nil
}
