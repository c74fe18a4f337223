package exec

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// DML operators. Each runs its whole statement in Open under the
// context's transaction (ctx.Txn) and streams no tuples; Affected
// reports the row count. UPDATE and DELETE materialize the RIDs of
// visible matching tuples before touching any of them — read by a table
// scan, or through the node's key range — so an update whose new
// version matches its own predicate is never revisited (the Halloween
// problem).

// dmlBase carries the shared state of the DML operators.
type dmlBase struct {
	ctx      *Ctx
	affected int64
	schema   *types.Schema
}

// Schema implements Operator.
func (d *dmlBase) Schema() *types.Schema { return d.schema }

// Next implements Operator: DML produces no tuples.
func (d *dmlBase) Next() (types.Tuple, error) { return nil, nil }

// Close implements Operator.
func (d *dmlBase) Close() error { return nil }

// Affected returns the number of rows the statement wrote.
func (d *dmlBase) Affected() int64 { return d.affected }

// InsertExec executes a plan.Insert.
type InsertExec struct {
	dmlBase
	node *plan.Insert
}

// NewInsert returns the operator for an INSERT plan.
func NewInsert(n *plan.Insert, ctx *Ctx) *InsertExec {
	return &InsertExec{dmlBase: dmlBase{ctx: ctx, schema: n.Schema()}, node: n}
}

// Open implements Operator, performing the inserts.
func (e *InsertExec) Open() error {
	if e.ctx.Txn == nil {
		return fmt.Errorf("exec: INSERT outside a transaction")
	}
	schema := e.node.Table.Schema
	for _, row := range e.node.Rows {
		if err := e.ctx.Tick(); err != nil {
			return err
		}
		tup := make(types.Tuple, len(row))
		for i, expr := range row {
			v, err := expr.Eval(nil, e.ctx.Params)
			if err != nil {
				return err
			}
			cv, err := types.Coerce(v, schema.Columns[i].Kind)
			if err != nil {
				return fmt.Errorf("exec: column %s: %w", schema.Columns[i].Name, err)
			}
			tup[i] = cv
		}
		if err := e.ctx.Txn.Insert(e.node.Table, tup); err != nil {
			return err
		}
		e.ctx.Meter.ChargeTuples(1)
		e.affected++
	}
	return nil
}

// DeleteExec executes a plan.Delete.
type DeleteExec struct {
	dmlBase
	node *plan.Delete
}

// NewDelete returns the operator for a DELETE plan.
func NewDelete(n *plan.Delete, ctx *Ctx) *DeleteExec {
	return &DeleteExec{dmlBase: dmlBase{ctx: ctx, schema: n.Schema()}, node: n}
}

// Open implements Operator, performing the deletes.
func (e *DeleteExec) Open() error {
	if e.ctx.Txn == nil {
		return fmt.Errorf("exec: DELETE outside a transaction")
	}
	matches, err := matchVisible(e.ctx, e.node.Table, e.node.Filters, e.node.Key)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := e.ctx.Txn.Delete(e.node.Table, m.rid, m.tup); err != nil {
			return err
		}
		e.ctx.Meter.ChargeTuples(1)
		e.affected++
	}
	return nil
}

// UpdateExec executes a plan.Update: delete old version, insert new.
type UpdateExec struct {
	dmlBase
	node *plan.Update
}

// NewUpdate returns the operator for an UPDATE plan.
func NewUpdate(n *plan.Update, ctx *Ctx) *UpdateExec {
	return &UpdateExec{dmlBase: dmlBase{ctx: ctx, schema: n.Schema()}, node: n}
}

// Open implements Operator, performing the updates.
func (e *UpdateExec) Open() error {
	if e.ctx.Txn == nil {
		return fmt.Errorf("exec: UPDATE outside a transaction")
	}
	matches, err := matchVisible(e.ctx, e.node.Table, e.node.Filters, e.node.Key)
	if err != nil {
		return err
	}
	schema := e.node.Table.Schema
	for _, m := range matches {
		next := m.tup.Clone()
		for _, set := range e.node.Set {
			v, err := set.Val.Eval(m.tup, e.ctx.Params)
			if err != nil {
				return err
			}
			cv, err := types.Coerce(v, schema.Columns[set.Col].Kind)
			if err != nil {
				return fmt.Errorf("exec: column %s: %w", schema.Columns[set.Col].Name, err)
			}
			next[set.Col] = cv
		}
		if err := e.ctx.Txn.Delete(e.node.Table, m.rid, m.tup); err != nil {
			return err
		}
		if err := e.ctx.Txn.Insert(e.node.Table, next); err != nil {
			return err
		}
		e.ctx.Meter.ChargeTuples(1)
		e.affected++
	}
	return nil
}

type match struct {
	rid storage.RID
	tup types.Tuple
}

// matchVisible reads the table under the transaction's snapshot and
// materializes the RID and tuple of every row passing the filters. Like
// a SeqScan it pushes the compiled filters into the storage scanner or,
// given a key range, into the RID-fetch loop, which test each record
// where it lies and decode in full — DML reads and writes whole tuples —
// only the rows that matched.
func matchVisible(ctx *Ctx, t *catalog.Table, filters []plan.Pred, key *plan.KeyRange) ([]match, error) {
	snap := ctx.Snap
	if snap == nil && ctx.Txn != nil {
		snap = ctx.Txn.Snapshot()
	}
	// Nothing reads the meter between two records of a match (there is
	// no fault site here, and no operator above), so the examined tuples
	// are counted here and charged once, on every way out: one atomic add
	// a statement, not one a record.
	var examined int64
	defer func() { ctx.Meter.ChargeTuples(examined) }()
	examine := func() error {
		if err := ctx.Tick(); err != nil {
			return err
		}
		examined++
		return nil
	}
	var out []match
	if key != nil {
		r, err := newKeyReader(t, key.Col, filters, nil, ctx, examine)
		if err != nil {
			return nil, err
		}
		r.snap = snap
		if err := r.scan(key); err != nil {
			return nil, err
		}
		for {
			tup, err := r.next()
			if tup == nil || err != nil {
				return out, err
			}
			out = append(out, match{rid: r.rid, tup: tup})
		}
	}
	s := t.Heap.ScanPartition(0, 1, ctx.Meter).WithSnapshot(snap).OnExamine(examine)
	if f := plan.CompileFilter(filters, ctx.Params); f != nil {
		s.WithFilter(f)
	}
	for s.Next() {
		out = append(out, match{rid: s.RID(), tup: s.Tuple()})
	}
	return out, s.Err()
}

// testAll reports whether t satisfies every predicate.
func testAll(preds []plan.Pred, t types.Tuple, params plan.Params) (bool, error) {
	for _, p := range preds {
		if ok, err := p.Test(t, params); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// RunDML builds and runs the operator for a DML plan node, returning the
// number of rows affected.
func RunDML(n plan.Node, ctx *Ctx) (int64, error) {
	var op interface {
		Operator
		Affected() int64
	}
	switch x := n.(type) {
	case *plan.Insert:
		op = NewInsert(x, ctx)
	case *plan.Update:
		op = NewUpdate(x, ctx)
	case *plan.Delete:
		op = NewDelete(x, ctx)
	default:
		return 0, fmt.Errorf("exec: %T is not a DML plan", n)
	}
	if err := op.Open(); err != nil {
		op.Close()
		return 0, err
	}
	defer op.Close()
	if _, err := Drain(op); err != nil {
		return 0, err
	}
	return op.Affected(), nil
}
