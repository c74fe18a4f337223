package exec

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// Failure-injection tests: errors raised deep inside operator trees must
// surface through every composition path, and partially-executed
// operators must clean up their temp files.

func TestUnboundHostVarSurfacesThroughScan(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 10, 2)
	n := scanNode(tbl, mustPred(t, tbl.Schema, "v < :missing"))
	op, _ := Build(n, e.ctx)
	if _, err := Collect(op); err == nil || !strings.Contains(err.Error(), "unbound host variable") {
		t.Errorf("error = %v, want unbound host variable", err)
	}
}

func TestUnboundHostVarSurfacesThroughJoinAndAgg(t *testing.T) {
	e := newEnv(64)
	l := e.makeTable(t, "l", 50, 5)
	r := e.makeTable(t, "r", 50, 5)
	j := &plan.HashJoin{
		Build:     scanNode(l, mustPred(t, l.Schema, "v < :missing")),
		Probe:     scanNode(r),
		BuildKeys: []int{1},
		ProbeKeys: []int{1},
	}
	a := &plan.Agg{
		Input:     j,
		GroupCols: []int{1},
		Aggs:      []plan.AggSpec{{Func: sql.AggCount, Name: "n"}},
		Out: types.NewSchema(
			l.Schema.Columns[1],
			types.Column{Name: "n", Kind: types.KindInt},
		),
	}
	op, err := Build(a, e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(op); err == nil {
		t.Error("deep error did not surface through join+agg")
	}
}

func TestDivisionByZeroInProjection(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 5, 2)
	kCol := &plan.ColExpr{Idx: 0, Col: tbl.Schema.Columns[0]}
	proj := &plan.Project{
		Input: scanNode(tbl),
		Exprs: []plan.Expr{&plan.BinExpr{Op: '/', Left: &plan.ConstExpr{Val: types.NewInt(1)}, Right: kCol}},
		Out:   types.NewSchema(types.Column{Name: "inv", Kind: types.KindInt}),
	}
	op, _ := Build(proj, e.ctx)
	if _, err := Collect(op); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("error = %v, want division by zero", err)
	}
}

func TestSpilledJoinCleansUpOnClose(t *testing.T) {
	e := newEnv(512)
	l := e.makeTable(t, "l", 3000, 50)
	r := e.makeTable(t, "r", 3000, 50)
	j := hashJoinNode(e, t, l, r, 4096)
	op, _ := Build(j, e.ctx)
	if err := op.Open(); err != nil { // build spills
		t.Fatal(err)
	}
	// Drain only part of the probe, then Close mid-stream.
	for i := 0; i < 10; i++ {
		if _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := e.pool.Disk().NumPages()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.pool.Disk().NumPages(); got >= pagesBefore {
		t.Errorf("Close freed no spill pages: %d -> %d", pagesBefore, got)
	}
}

func TestAggSpillCleansUpOnClose(t *testing.T) {
	e := newEnv(512)
	tbl := e.makeTable(t, "r", 5000, 2500)
	a := &plan.Agg{
		Input:     scanNode(tbl),
		GroupCols: []int{1},
		Aggs:      []plan.AggSpec{{Func: sql.AggCount, Name: "n"}},
		Out: types.NewSchema(
			tbl.Schema.Columns[1],
			types.Column{Name: "n", Kind: types.KindInt},
		),
	}
	a.Est().Grant = 4096
	op := NewAgg(a, mustBuild(t, e, scanNode(tbl)), e.ctx)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if !op.Spilled() {
		t.Fatal("aggregate over 2500 groups did not spill under a 4 KiB grant")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	// The partitions were dropped during merge or Close; scanning the
	// disk should show no growth over the base table.
	if err := op.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

func TestLimitZero(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 100, 10)
	lim := &plan.Limit{Input: scanNode(tbl), N: 0}
	rows := collectAll(t, mustBuild(t, e, lim))
	if len(rows) != 0 {
		t.Errorf("limit 0 returned %d rows", len(rows))
	}
}

func TestSortDescStability(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 300, 3)
	s := &plan.Sort{Input: scanNode(tbl), Keys: []plan.SortKey{{Col: 1, Desc: true}}}
	rows := collectAll(t, mustBuild(t, e, s))
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Int() < rows[i][1].Int() {
			t.Fatal("desc sort out of order")
		}
		// Stable: within equal keys, original (k ascending) order holds.
		if rows[i-1][1].Int() == rows[i][1].Int() && rows[i-1][0].Int() > rows[i][0].Int() {
			t.Fatal("sort not stable")
		}
	}
}

func TestEmptyInputsEverywhere(t *testing.T) {
	e := newEnv(64)
	empty, _ := e.cat.CreateTable("empty", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	))
	other := e.makeTable(t, "o", 10, 2)

	j := &plan.HashJoin{Build: scanNode(empty), Probe: scanNode(other), BuildKeys: []int{1}, ProbeKeys: []int{1}}
	if rows := collectAll(t, mustBuild(t, e, j)); len(rows) != 0 {
		t.Errorf("empty build joined %d rows", len(rows))
	}
	j2 := &plan.HashJoin{Build: scanNode(other), Probe: scanNode(empty), BuildKeys: []int{1}, ProbeKeys: []int{1}}
	if rows := collectAll(t, mustBuild(t, e, j2)); len(rows) != 0 {
		t.Errorf("empty probe joined %d rows", len(rows))
	}
	a := &plan.Agg{
		Input:     scanNode(empty),
		GroupCols: []int{1},
		Aggs:      []plan.AggSpec{{Func: sql.AggCount, Name: "n"}},
		Out:       types.NewSchema(empty.Schema.Columns[1], types.Column{Name: "n", Kind: types.KindInt}),
	}
	if rows := collectAll(t, mustBuild(t, e, a)); len(rows) != 0 {
		t.Errorf("empty group-by produced %d groups", len(rows))
	}
	s := &plan.Sort{Input: scanNode(empty), Keys: []plan.SortKey{{Col: 0}}}
	if rows := collectAll(t, mustBuild(t, e, s)); len(rows) != 0 {
		t.Errorf("empty sort produced %d rows", len(rows))
	}
}
