package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// aggNode builds: select v, sum(k), avg(k), count(*), min(k), max(k)
// from tbl group by v.
func aggNode(t testing.TB, e *testEnv, tblName string, grant float64) *plan.Agg {
	t.Helper()
	tbl, err := e.cat.Table(tblName)
	if err != nil {
		t.Fatal(err)
	}
	kExpr := &plan.ColExpr{Idx: 0, Col: tbl.Schema.Columns[0]}
	out := types.NewSchema(
		tbl.Schema.Columns[1],
		types.Column{Name: "sum_k", Kind: types.KindInt},
		types.Column{Name: "avg_k", Kind: types.KindFloat},
		types.Column{Name: "cnt", Kind: types.KindInt},
		types.Column{Name: "min_k", Kind: types.KindInt},
		types.Column{Name: "max_k", Kind: types.KindInt},
	)
	a := &plan.Agg{
		Input:     scanNode(tbl),
		GroupCols: []int{1},
		Aggs: []plan.AggSpec{
			{Func: sql.AggSum, Arg: kExpr, Name: "sum_k"},
			{Func: sql.AggAvg, Arg: kExpr, Name: "avg_k"},
			{Func: sql.AggCount, Name: "cnt"},
			{Func: sql.AggMin, Arg: kExpr, Name: "min_k"},
			{Func: sql.AggMax, Arg: kExpr, Name: "max_k"},
		},
		Out: out,
	}
	a.Est().Grant = grant
	return a
}

func verifyAggOutput(t *testing.T, rows []types.Tuple, n int64, mod int64) {
	t.Helper()
	if int64(len(rows)) != mod {
		t.Fatalf("got %d groups, want %d", len(rows), mod)
	}
	for _, r := range rows {
		g := r[0].Int()
		// Group g holds k = g, g+mod, g+2*mod, ... < n.
		var sum, cnt, mn, mx int64
		mn = math.MaxInt64
		for k := g; k < n; k += mod {
			sum += k
			cnt++
			if k < mn {
				mn = k
			}
			if k > mx {
				mx = k
			}
		}
		if r[1].Int() != sum {
			t.Errorf("group %d sum = %v, want %d", g, r[1], sum)
		}
		if math.Abs(r[2].Float()-float64(sum)/float64(cnt)) > 1e-9 {
			t.Errorf("group %d avg = %v", g, r[2])
		}
		if r[3].Int() != cnt {
			t.Errorf("group %d count = %v, want %d", g, r[3], cnt)
		}
		if r[4].Int() != mn || r[5].Int() != mx {
			t.Errorf("group %d min/max = %v/%v, want %d/%d", g, r[4], r[5], mn, mx)
		}
	}
}

func TestAggInMemory(t *testing.T) {
	e := newEnv(128)
	e.makeTable(t, "r", 1000, 10)
	a := aggNode(t, e, "r", 0)
	op := mustBuild(t, e, a)
	rows := collectAll(t, op)
	verifyAggOutput(t, rows, 1000, 10)
	if op.(*Agg).Spilled() {
		t.Error("unlimited-grant aggregate spilled")
	}
}

func TestAggSpilledMatchesInMemory(t *testing.T) {
	e := newEnv(512)
	e.makeTable(t, "r", 5000, 500)
	a := aggNode(t, e, "r", 2048) // tiny grant forces spill
	op := mustBuild(t, e, a)
	rows := collectAll(t, op)
	if !op.(*Agg).Spilled() {
		t.Fatal("aggregate did not spill")
	}
	verifyAggOutput(t, rows, 5000, 500)
}

func TestAggNoGroupBy(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 100, 10)
	kExpr := &plan.ColExpr{Idx: 0, Col: tbl.Schema.Columns[0]}
	a := &plan.Agg{
		Input: scanNode(tbl),
		Aggs:  []plan.AggSpec{{Func: sql.AggSum, Arg: kExpr, Name: "s"}},
		Out:   types.NewSchema(types.Column{Name: "s", Kind: types.KindInt}),
	}
	rows := collectAll(t, mustBuild(t, e, a))
	if len(rows) != 1 || rows[0][0].Int() != 4950 {
		t.Errorf("sum over all = %v", rows)
	}
}

func TestAggNullHandling(t *testing.T) {
	e := newEnv(64)
	tbl, _ := e.cat.CreateTable("n", types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindInt},
	))
	tbl.Insert(types.Tuple{types.NewInt(1), types.NewInt(10)})
	tbl.Insert(types.Tuple{types.NewInt(1), types.Null()})
	tbl.Insert(types.Tuple{types.NewInt(2), types.Null()})
	xExpr := &plan.ColExpr{Idx: 1, Col: tbl.Schema.Columns[1]}
	a := &plan.Agg{
		Input:     scanNode(tbl),
		GroupCols: []int{0},
		Aggs: []plan.AggSpec{
			{Func: sql.AggCount, Arg: xExpr, Name: "cx"}, // COUNT(x) skips NULLs
			{Func: sql.AggCount, Name: "call"},           // COUNT(*)
			{Func: sql.AggAvg, Arg: xExpr, Name: "ax"},
		},
		Out: types.NewSchema(
			tbl.Schema.Columns[0],
			types.Column{Name: "cx", Kind: types.KindInt},
			types.Column{Name: "call", Kind: types.KindInt},
			types.Column{Name: "ax", Kind: types.KindFloat},
		),
	}
	rows := collectAll(t, mustBuild(t, e, a))
	sortTuples(rows)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	// Group 1: COUNT(x)=1, COUNT(*)=2, AVG=10.
	if rows[0][1].Int() != 1 || rows[0][2].Int() != 2 || rows[0][3].Float() != 10 {
		t.Errorf("group 1 = %v", rows[0])
	}
	// Group 2: all-NULL x: COUNT(x)=0, AVG=NULL.
	if rows[1][1].Int() != 0 || !rows[1][3].IsNull() {
		t.Errorf("group 2 = %v", rows[1])
	}
}

func TestSortInMemory(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 500, 7)
	s := &plan.Sort{Input: scanNode(tbl), Keys: []plan.SortKey{{Col: 1}, {Col: 0, Desc: true}}}
	rows := collectAll(t, mustBuild(t, e, s))
	if len(rows) != 500 {
		t.Fatalf("sorted %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a[1].Int() > b[1].Int() {
			t.Fatal("primary key out of order")
		}
		if a[1].Int() == b[1].Int() && a[0].Int() < b[0].Int() {
			t.Fatal("secondary desc key out of order")
		}
	}
}

func TestSortSpilledMatchesInMemory(t *testing.T) {
	e := newEnv(512)
	tbl := e.makeTable(t, "r", 4000, 97)
	mk := func(grant float64) (*Sort, []types.Tuple) {
		s := &plan.Sort{Input: scanNode(tbl), Keys: []plan.SortKey{{Col: 1}, {Col: 0}}}
		s.Est().Grant = grant
		op := NewSort(s, mustBuild(t, e, scanNode(tbl)), e.ctx)
		return op, collectAll(t, op)
	}
	memOp, want := mk(0)
	if memOp.Spilled() {
		t.Fatal("unbounded sort spilled")
	}
	spillOp, got := mk(4096)
	if !spillOp.Spilled() {
		t.Fatal("tiny-grant sort did not spill")
	}
	if len(got) != len(want) {
		t.Fatalf("spilled sort lost rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestProjectAndLimit(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 100, 10)
	proj := &plan.Project{
		Input: scanNode(tbl),
		Exprs: []plan.Expr{
			&plan.BinExpr{Op: '+', Left: &plan.ColExpr{Idx: 0, Col: tbl.Schema.Columns[0]}, Right: &plan.ConstExpr{Val: types.NewInt(1000)}},
		},
		Out: types.NewSchema(types.Column{Name: "kplus", Kind: types.KindInt}),
	}
	lim := &plan.Limit{Input: proj, N: 7}
	rows := collectAll(t, mustBuild(t, e, lim))
	if len(rows) != 7 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	if rows[0][0].Int() != 1000 {
		t.Errorf("projected value = %v", rows[0][0])
	}
}

func TestMaterialize(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 300, 5)
	op := mustBuild(t, e, scanNode(tbl))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	tf, err := Materialize(op, e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	op.Close()
	if tf.NumTuples() != 300 {
		t.Errorf("materialized %d tuples", tf.NumTuples())
	}
}

// TestAggOverNonNumericArguments: COUNT, MIN and MAX of VARCHAR and DATE
// arguments — with NULLs among them, with and without GROUP BY, at
// degree 1 and 2, in memory and spilled — match a naive evaluation.
func TestAggOverNonNumericArguments(t *testing.T) {
	e := newEnv(256)
	in := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "d", Kind: types.KindDate},
	)
	const n, groups = 600, 40
	rows := make([]types.Tuple, n)
	for i := range rows {
		s, d := types.NewString(fmt.Sprintf("v%03d", i*37%n)), types.NewDate(int64(9000+i*53%n))
		if i%11 == 0 {
			s = types.Null()
		}
		if i%13 == 0 {
			d = types.Null()
		}
		rows[i] = types.Tuple{types.NewInt(int64(i % groups)), s, d}
	}
	sArg := &plan.ColExpr{Idx: 1, Col: in.Columns[1]}
	dArg := &plan.ColExpr{Idx: 2, Col: in.Columns[2]}
	specs := []plan.AggSpec{
		{Func: sql.AggCount, Arg: sArg}, {Func: sql.AggMin, Arg: sArg}, {Func: sql.AggMax, Arg: sArg},
		{Func: sql.AggCount, Arg: dArg}, {Func: sql.AggMin, Arg: dArg}, {Func: sql.AggMax, Arg: dArg},
		{Func: sql.AggCount},
	}
	for _, grouped := range []bool{false, true} {
		// The naive answer: per group COUNT, MIN, MAX of s, then of d,
		// then COUNT(*).
		want := map[int64]types.Tuple{}
		for _, r := range rows {
			g := int64(0)
			if grouped {
				g = r[0].Int()
			}
			w := want[g]
			if w == nil {
				w = types.Tuple{types.NewInt(0), types.Null(), types.Null(), types.NewInt(0), types.Null(), types.Null(), types.NewInt(0)}
				want[g] = w
			}
			for j, v := range []types.Value{r[1], r[2]} {
				if v.IsNull() {
					continue
				}
				cnt, mn, mx := &w[3*j], &w[3*j+1], &w[3*j+2]
				*cnt = types.NewInt(cnt.Int() + 1)
				if mn.IsNull() || v.Compare(*mn) < 0 {
					*mn = v
				}
				if mx.IsNull() || v.Compare(*mx) > 0 {
					*mx = v
				}
			}
			w[6] = types.NewInt(w[6].Int() + 1)
		}
		var wantRows []types.Tuple
		for g, w := range want {
			if grouped {
				w = append(types.Tuple{types.NewInt(g)}, w...)
			}
			wantRows = append(wantRows, w)
		}
		for _, grant := range []float64{0, 1024} {
			node := &plan.Agg{Aggs: specs}
			if grouped {
				node.GroupCols = []int{0}
			}
			node.Est().Grant = grant
			for _, degree := range []int{1, 2} {
				got := runAgg(t, e.ctx, node, in, rows, degree)
				for _, r := range got {
					for j, v := range r {
						if w := wantRows[0][j]; !v.IsNull() && v.Kind() != w.Kind() {
							t.Fatalf("grouped %v, grant %.0f, degree %d: column %d is %s, want %s", grouped, grant, degree, j, v.Kind(), w.Kind())
						}
					}
				}
				tuplesetEqual(t, got, slices.Clone(wantRows))
			}
			if grant > 0 && grouped {
				op := NewAgg(node, &tupleSource{sch: in, rows: rows}, e.ctx)
				collectAll(t, op)
				if !op.Spilled() {
					t.Fatalf("grant %.0f: the aggregate did not spill", grant)
				}
			}
		}
	}
}
