package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// churned is a table kr(k INTEGER key, v INTEGER, s VARCHAR) with an
// index on k and on v, after committed updates and deletes, an aborted
// insert, and a vacuum that a still-open snapshot (old) kept from
// sweeping the second round's dead versions: its indexes hold entries
// for versions one snapshot sees and another does not.
type churned struct {
	e        *testEnv
	tbl      *catalog.Table
	old, now *storage.TxnSnapshot
}

func buildChurned() (*churned, error) {
	e := newEnv(64)
	tbl, err := e.cat.CreateTable("kr", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt, Key: true},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 400; i++ {
		v := types.NewInt(int64(i % 37))
		if i%50 == 7 {
			v = types.Null()
		}
		if err := tbl.Insert(types.Tuple{types.NewInt(int64(i)), v, types.NewString(fmt.Sprintf("r%d", i%5))}); err != nil {
			return nil, err
		}
	}
	for _, col := range []string{"k", "v"} {
		if err := e.cat.CreateIndex("kr", col); err != nil {
			return nil, err
		}
	}
	pred := func(cond string) plan.Pred {
		stmt, err := sql.Parse("select k from kr where " + cond)
		if err != nil {
			panic(err)
		}
		p, err := plan.BindPred(stmt.Where[0], tbl.Schema)
		if err != nil {
			panic(err)
		}
		return p
	}
	set := func(col int, v types.Value) []plan.SetCol {
		return []plan.SetCol{{Col: col, Val: &plan.ConstExpr{Val: v}}}
	}
	run := func(commit bool, nodes ...plan.Node) error {
		tx := e.cat.BeginTxn()
		ctx := *e.ctx
		ctx.Txn, ctx.Snap = tx, tx.Snapshot()
		for _, n := range nodes {
			if _, err := RunDML(n, &ctx); err != nil {
				tx.Abort()
				return err
			}
		}
		if commit {
			tx.Commit()
			return nil
		}
		return tx.Abort()
	}
	if err := run(true,
		&plan.Update{Table: tbl, Filters: []plan.Pred{pred("k < 100")}, Set: set(1, types.NewInt(3))},
		&plan.Update{Table: tbl, Filters: []plan.Pred{pred("k between 150 and 160")}, Set: set(0, types.NewInt(1000))},
		&plan.Delete{Table: tbl, Filters: []plan.Pred{pred("v = 5")}},
	); err != nil {
		return nil, err
	}
	ins := &plan.Insert{Table: tbl}
	for i := 400; i < 420; i++ {
		ins.Rows = append(ins.Rows, []plan.Expr{&plan.ConstExpr{Val: types.NewInt(int64(i))},
			&plan.ConstExpr{Val: types.NewInt(1)}, &plan.ConstExpr{Val: types.NewString("new")}})
	}
	if err := run(false, ins); err != nil {
		return nil, err
	}
	old := e.cat.BeginRead() // never ended: it pins the horizon
	if err := run(true,
		&plan.Update{Table: tbl, Filters: []plan.Pred{pred("v < 10")}, Set: set(2, types.NewString("x"))},
		&plan.Delete{Table: tbl, Filters: []plan.Pred{pred("k between 200 and 220")}},
	); err != nil {
		return nil, err
	}
	if _, err := e.cat.Vacuum(); err != nil {
		return nil, err
	}
	return &churned{e: e, tbl: tbl, old: old.Snapshot(), now: e.cat.Txns().LatestSnapshot()}, nil
}

// keyCase renders one fuzz input as the filters a scan applies and the
// key range the optimizer would derive from them.
type keyCase struct {
	filters []plan.Pred
	key     *plan.KeyRange
	params  plan.Params
}

// boundValue picks a bound of kind sel%5: an INTEGER, a FLOAT, NULL, a
// VARCHAR, or a FLOAT NaN.
func boundValue(sel uint8, i int64, f float64) types.Value {
	switch sel % 5 {
	case 0:
		return types.NewInt(i % 1100)
	case 1:
		return types.NewFloat(math.Mod(f, 1100))
	case 2:
		return types.Null()
	case 3:
		return types.NewString(fmt.Sprint(i % 100))
	}
	return types.NewFloat(math.NaN())
}

func newKeyCase(col, shape, kinds uint8, lo, hi int64, loF, hiF float64) keyCase {
	c := keyCase{params: plan.Params{}}
	colExpr := &plan.ColExpr{Idx: int(col % 2), Col: types.Column{Name: []string{"k", "v"}[col%2], Kind: types.KindInt}}
	bound := func(name string, v types.Value, asParam bool) plan.Expr {
		if !asParam {
			return &plan.ConstExpr{Val: v}
		}
		c.params[name] = v
		return &plan.ParamExpr{Name: name, Hint: types.KindFloat}
	}
	loE := bound("lo", boundValue(kinds, lo, loF), kinds&0x08 != 0)
	hiE := bound("hi", boundValue(kinds>>4, hi, hiF), kinds&0x80 != 0)
	loOp, hiOp := sql.OpGt, sql.OpLt
	k := &plan.KeyRange{Col: colExpr.Idx}
	if shape&0x08 != 0 {
		loOp, k.LoIncl = sql.OpGe, true
	}
	if shape&0x10 != 0 {
		hiOp, k.HiIncl = sql.OpLe, true
	}
	switch shape % 5 {
	case 0: // col = lo, either way round
		if shape&0x20 != 0 {
			c.filters = append(c.filters, &plan.CmpPred{Op: sql.OpEq, Left: loE, Right: colExpr})
		} else {
			c.filters = append(c.filters, &plan.CmpPred{Op: sql.OpEq, Left: colExpr, Right: loE})
		}
		k.Lo, k.Hi, k.LoIncl, k.HiIncl = loE, loE, true, true
	case 1: // a lower bound, written "lo < col" when flipped
		if shape&0x20 != 0 {
			c.filters = append(c.filters, &plan.CmpPred{Op: loOp.Flip(), Left: loE, Right: colExpr})
		} else {
			c.filters = append(c.filters, &plan.CmpPred{Op: loOp, Left: colExpr, Right: loE})
		}
		k.Lo = loE
	case 2: // an upper bound
		c.filters = append(c.filters, &plan.CmpPred{Op: hiOp, Left: colExpr, Right: hiE})
		k.Hi = hiE
	case 3: // both
		c.filters = append(c.filters, &plan.CmpPred{Op: loOp, Left: colExpr, Right: loE},
			&plan.CmpPred{Op: hiOp, Left: colExpr, Right: hiE})
		k.Lo, k.Hi = loE, hiE
	default: // between
		c.filters = append(c.filters, &plan.BetweenPred{Expr: colExpr, Lo: loE, Hi: hiE})
		k.Lo, k.Hi, k.LoIncl, k.HiIncl = loE, hiE, true, true
	}
	if shape&0x40 != 0 { // a filter the range does not narrow by
		c.filters = append(c.filters, &plan.CmpPred{Op: sql.OpNe,
			Left:  &plan.ColExpr{Idx: 2, Col: types.Column{Name: "s", Kind: types.KindString}},
			Right: &plan.ConstExpr{Val: types.NewString("x")}})
	}
	c.key = k
	return c
}

// canon renders rows as a sorted multiset.
func canon(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// FuzzKeyRange: on a churned, vacuumed stamped heap, an index scan of a
// key range returns the multiset a seq scan with the same filters does,
// and a DML match through the range the rows and RIDs one without does
// — for equalities and one- and two-sided ranges, inclusive or not,
// with bounds that are literals or host variables of the column's kind,
// FLOAT, NULL, VARCHAR or NaN, under a snapshot that still sees swept
// versions' predecessors and under the latest.
func FuzzKeyRange(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(17), int64(0), 0.0, 0.0, false)
	f.Add(uint8(1), uint8(0x18|3), uint8(0), int64(3), int64(9), 0.0, 0.0, true)
	f.Add(uint8(0), uint8(0x20|1), uint8(0x11), int64(0), int64(0), 99.5, 1000.0, false)
	f.Add(uint8(1), uint8(4), uint8(0x88|0x22), int64(2), int64(30), 0.0, 0.0, true)
	f.Add(uint8(0), uint8(0x40|3), uint8(0x43), int64(5), int64(5), 0.0, 0.0, false)
	f.Add(uint8(1), uint8(2), uint8(0x40), int64(0), int64(0), 0.0, 0.0, true)
	f.Add(uint8(0), uint8(0), uint8(4), int64(0), int64(0), 0.0, 0.0, false)
	c, err := buildChurned()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, col, shape, kinds uint8, lo, hi int64, loF, hiF float64, old bool) {
		kc := newKeyCase(col, shape, kinds, lo, hi, loF, hiF)
		ctx := *c.e.ctx
		ctx.Params, ctx.Snap = kc.params, c.now
		if old {
			ctx.Snap = c.old
		}
		seq := scanNode(c.tbl, kc.filters...)
		keyed := scanNode(c.tbl, kc.filters...)
		keyed.Key = kc.key
		want := canon(collectAll(t, NewSeqScan(seq, &ctx)))
		got := canon(collectAll(t, NewSeqScan(keyed, &ctx)))
		if !slices.Equal(got, want) {
			t.Fatalf("index scan of %s under %v:\n got %v\nwant %v", keyed.Describe(), kc.params, got, want)
		}
		byKey, err := matchVisible(&ctx, c.tbl, kc.filters, kc.key)
		if err != nil {
			t.Fatal(err)
		}
		byScan, err := matchVisible(&ctx, c.tbl, kc.filters, nil)
		if err != nil {
			t.Fatal(err)
		}
		render := func(ms []match) []string {
			out := make([]string, len(ms))
			for i, m := range ms {
				out[i] = fmt.Sprint(m.rid, m.tup)
			}
			slices.Sort(out)
			return out
		}
		if g, w := render(byKey), render(byScan); !slices.Equal(g, w) {
			t.Fatalf("DML match through %s:\n got %v\nwant %v", keyed.Describe(), g, w)
		}
	})
}

// An index scan reads only its range: it charges a tuple for each RID
// it fetched, not for the table, and in a parallel region partition 0
// reads the whole range while the others read nothing.
func TestIndexScanReadsItsRangeOnce(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 2000, 10)
	if err := e.cat.CreateIndex("r", "v"); err != nil {
		t.Fatal(err)
	}
	eq := &plan.ParamExpr{Name: "v", Hint: types.KindInt}
	n := scanNode(tbl, &plan.CmpPred{Op: sql.OpEq, Left: &plan.ColExpr{Idx: 1, Col: tbl.Schema.Columns[1]}, Right: eq},
		mustPred(t, tbl.Schema, "k < 1000"))
	n.Key = &plan.KeyRange{Col: 1, Lo: eq, Hi: eq, LoIncl: true, HiIncl: true}
	if n.Label() != "index-scan" || n.Describe() != "r key v = :v filter r.v = :v and r.k < 1000" {
		t.Errorf("displayed as %s [%s]", n.Label(), n.Describe())
	}
	ctx := *e.ctx
	ctx.Params = plan.Params{"v": types.NewInt(3)}
	before := ctx.Meter.Snapshot()
	rows := collectAll(t, NewSeqScan(n, &ctx))
	if len(rows) != 100 {
		t.Errorf("index scan returned %d rows, want 100", len(rows))
	}
	if d := ctx.Meter.Snapshot().Sub(before); d.TupleCPU != 200 {
		t.Errorf("charged %d tuples, want the 200 fetched", d.TupleCPU)
	}
	total := 0
	for part := 0; part < 2; part++ {
		pctx := ctx
		pctx.Part, pctx.PartOf = part, 2
		got := len(collectAll(t, NewSeqScan(n, &pctx)))
		if part > 0 && got != 0 {
			t.Errorf("partition %d read %d rows, want none", part, got)
		}
		total += got
	}
	if total != 100 {
		t.Errorf("partitions read %d rows together, want 100", total)
	}
	ctx.Params = plan.Params{"v": types.Null()}
	if rows := collectAll(t, NewSeqScan(n, &ctx)); len(rows) != 0 {
		t.Errorf("a NULL key matched %d rows", len(rows))
	}
	ctx.Params = plan.Params{}
	if err := NewSeqScan(n, &ctx).Open(); err == nil {
		t.Error("an unbound key opened")
	}
}
