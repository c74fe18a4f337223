package optimizer

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// fixture builds a small analyzed star schema:
//
//	orders(o_id key, o_cust, o_status, o_price)  20000 rows
//	cust(c_id key, c_nation)                      1000 rows
//	nation(n_id key, n_name)                        25 rows
type fixture struct {
	cat   *catalog.Catalog
	ctx   *exec.Ctx
	meter *storage.CostMeter
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 1024)
	cat := catalog.New(pool)

	orders, err := cat.CreateTable("orders", types.NewSchema(
		types.Column{Name: "o_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "o_cust", Kind: types.KindInt},
		types.Column{Name: "o_status", Kind: types.KindInt},
		types.Column{Name: "o_price", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		orders.Insert(types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 1000)),
			types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i%500) + 0.5),
		})
	}
	cust, _ := cat.CreateTable("cust", types.NewSchema(
		types.Column{Name: "c_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "c_nation", Kind: types.KindInt},
	))
	for i := 0; i < 1000; i++ {
		cust.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 25))})
	}
	nation, _ := cat.CreateTable("nation", types.NewSchema(
		types.Column{Name: "n_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "n_name", Kind: types.KindString},
	))
	for i := 0; i < 25; i++ {
		nation.Insert(types.Tuple{types.NewInt(int64(i)), types.NewString(strings.Repeat("n", 5))})
	}
	for _, name := range []string{"orders", "cust", "nation"} {
		if err := cat.Analyze(name, catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
			t.Fatal(err)
		}
	}
	cat.CreateIndex("cust", "c_id")
	cat.CreateIndex("nation", "n_id")
	return &fixture{
		cat:   cat,
		ctx:   &exec.Ctx{Pool: pool, Meter: m, Params: plan.Params{}},
		meter: m,
	}
}

func (f *fixture) optimize(t *testing.T, src string) *Result {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Analyze(f.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 64 << 20}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzeClassifiesPredicates(t *testing.T) {
	f := newFixture(t)
	stmt, _ := sql.Parse(`select o_id from orders, cust
		where orders.o_cust = cust.c_id and o_status = 3 and o_price < c_nation`)
	q, err := Analyze(f.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 2 {
		t.Fatalf("rels = %d", len(q.Rels))
	}
	kinds := []PredKind{q.Preds[0].Kind, q.Preds[1].Kind, q.Preds[2].Kind}
	if kinds[0] != PredEquiJoin || kinds[1] != PredLocal || kinds[2] != PredOther {
		t.Errorf("kinds = %v", kinds)
	}
	if len(q.Rels[0].LocalPreds) != 1 {
		t.Errorf("orders local preds = %d", len(q.Rels[0].LocalPreds))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	f := newFixture(t)
	bad := []string{
		"select x from nosuch",
		"select nosuchcol from orders",
		"select o_id from orders, orders",
	}
	for _, src := range bad {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Analyze(f.cat, stmt); err == nil {
			t.Errorf("Analyze(%q) succeeded", src)
		}
	}
}

func TestSingleTablePlan(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, "select o_id, o_price from orders where o_status = 3")
	proj, ok := res.Root.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T", res.Root)
	}
	scan, ok := proj.Input.(*plan.Scan)
	if !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if len(scan.Filters) != 1 {
		t.Errorf("filters not pushed down: %d", len(scan.Filters))
	}
	// o_status = 3 matches 1/10 of rows; MaxDiff histogram on 10
	// distinct values is exact.
	if e := scan.Est(); e.Rows < 1800 || e.Rows > 2200 {
		t.Errorf("estimated rows = %g, want ~2000", e.Rows)
	}
}

func TestJoinOrderPutsSmallSideFirst(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id from orders, cust
		where orders.o_cust = cust.c_id`)
	// cust (1000 rows) should be the leftmost (build) relation rather
	// than orders (20000 rows).
	first := res.Query.Rels[res.Order[0]].Binding
	if first != "cust" {
		t.Errorf("leftmost relation = %s, want cust (plan:\n%s)", first, obs.FormatPlan(res.Root))
	}
}

func TestThreeWayJoinExecutesCorrectly(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id, n_name from orders, cust, nation
		where orders.o_cust = cust.c_id and cust.c_nation = nation.n_id
		and o_status = 7 and o_id < 100`)
	op, err := exec.Build(res.Root, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// o_id in [0,100) with o_id % 10 == 7: exactly 10 orders; each has
	// one customer and one nation.
	if len(rows) != 10 {
		t.Fatalf("join returned %d rows, want 10:\n%s", len(rows), obs.FormatPlan(res.Root))
	}
	for _, r := range rows {
		if r[0].Int()%10 != 7 {
			t.Errorf("row %v fails o_status filter", r)
		}
	}
}

func TestAggregatePlanAndExecution(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_status, count(*) as cnt, avg(o_price) as ap
		from orders group by o_status order by o_status`)
	op, err := exec.Build(res.Root, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Errorf("order by violated: row %d = %v", i, r)
		}
		if r[1].Int() != 2000 {
			t.Errorf("count for status %d = %v", i, r[1])
		}
	}
}

func TestDistinctAndLimit(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, "select distinct o_status from orders limit 4")
	op, err := exec.Build(res.Root, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("distinct+limit returned %d rows", len(rows))
	}
}

func TestHostVarPredicateUsesDefaults(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, "select o_id from orders where o_price < :cut")
	scan := res.Root.(*plan.Project).Input.(*plan.Scan)
	got := scan.Est().Rows / 20000
	if got != histogram.DefaultRangeSelectivity {
		t.Errorf("host-var selectivity = %g, want default %g", got, histogram.DefaultRangeSelectivity)
	}
}

func TestIndexJoinChosenForSelectiveOuter(t *testing.T) {
	f := newFixture(t)
	// One order (o_id = 5) probing cust: index join should beat
	// building a hash table over 1000 customers... or at least the
	// plan must contain one of the two and execute correctly.
	res := f.optimize(t, `select o_id, c_nation from orders, cust
		where orders.o_cust = cust.c_id and o_id = 5`)
	hasIndexJoin := false
	plan.Walk(res.Root, func(n plan.Node) {
		if _, ok := n.(*plan.IndexJoin); ok {
			hasIndexJoin = true
		}
	})
	if !hasIndexJoin {
		t.Errorf("expected indexed join for 1-row outer:\n%s", obs.FormatPlan(res.Root))
	}
	op, _ := exec.Build(res.Root, f.ctx)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Int() != 5%25 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDisableIndexJoin(t *testing.T) {
	f := newFixture(t)
	stmt, _ := sql.Parse(`select o_id from orders, cust where orders.o_cust = cust.c_id and o_id = 5`)
	q, _ := Analyze(f.cat, stmt)
	o := &Optimizer{Weights: storage.DefaultCostWeights(), DisableIndexJoin: true}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(res.Root, func(n plan.Node) {
		if _, ok := n.(*plan.IndexJoin); ok {
			t.Error("index join present despite DisableIndexJoin")
		}
	})
}

func TestNonEquiJoinViaResidualFilter(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id from orders, nation
		where orders.o_status < nation.n_id and o_id < 20`)
	hasFilter := false
	plan.Walk(res.Root, func(n plan.Node) {
		if _, ok := n.(*plan.Filter); ok {
			hasFilter = true
		}
	})
	if !hasFilter {
		t.Fatalf("no residual filter in plan:\n%s", obs.FormatPlan(res.Root))
	}
	op, _ := exec.Build(res.Root, f.ctx)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// o_id < 20: statuses 0..9, each joins nations with n_id > status:
	// sum over o_id in [0,20) of (25 - (o_id%10) - 1).
	want := 0
	for i := 0; i < 20; i++ {
		want += 25 - (i % 10) - 1
	}
	if len(rows) != want {
		t.Errorf("non-equi join rows = %d, want %d", len(rows), want)
	}
}

func TestMemoryDemandsAnnotated(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_status, count(*) as c from orders, cust
		where orders.o_cust = cust.c_id group by o_status`)
	joins, aggs := 0, 0
	plan.Walk(res.Root, func(n plan.Node) {
		switch n.(type) {
		case *plan.HashJoin:
			joins++
			e := n.Est()
			if e.MemMax <= 0 || e.MemMin <= 0 || e.MemMin > e.MemMax || !e.MemStep {
				t.Errorf("hash join demands = %+v", *e)
			}
		case *plan.Agg:
			aggs++
			if e := n.Est(); e.MemMax <= 0 || e.MemStep {
				t.Errorf("agg demands = %+v", *e)
			}
		}
	})
	if joins+aggs == 0 {
		t.Error("no memory consumers found")
	}
}

func TestDPNeverWorseThanGreedyOrder(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id from orders, cust, nation
		where orders.o_cust = cust.c_id and cust.c_nation = nation.n_id`)
	// DP cost must be <= the cost of the plan that joins in FROM-clause
	// order. Rebuild that order manually through extend().
	stmt, _ := sql.Parse(`select o_id from orders, cust, nation
		where orders.o_cust = cust.c_id and cust.c_nation = nation.n_id`)
	q, _ := Analyze(f.cat, stmt)
	o := &Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 64 << 20}
	cur, err := o.buildLeaf(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 3; j++ {
		leaf, _ := o.buildLeaf(q, j)
		next, err := o.extend(q, cur, leaf, j)
		if err != nil || next == nil {
			t.Fatalf("extend %d: %v", j, err)
		}
		cur = next
	}
	if res.Root.Est().Cost > cur.cost*1.0001+cur.cost*0 {
		// Compare join-tree cost (res includes tops; compare against
		// the join entry's node cost instead).
	}
	var joinCost float64
	plan.Walk(res.Root, func(n plan.Node) {
		switch n.(type) {
		case *plan.HashJoin, *plan.IndexJoin:
			if n.Est().Cost > joinCost {
				joinCost = n.Est().Cost
			}
		}
	})
	if joinCost > cur.cost+1e-6 {
		t.Errorf("DP join cost %.1f exceeds naive order cost %.1f", joinCost, cur.cost)
	}
}

func TestPlansConsideredCounted(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id from orders, cust, nation
		where orders.o_cust = cust.c_id and cust.c_nation = nation.n_id`)
	if res.PlansConsidered < 4 {
		t.Errorf("PlansConsidered = %d", res.PlansConsidered)
	}
}

func TestCalibratorMonotone(t *testing.T) {
	t2, t4, t6 := OptTime(2), OptTime(4), OptTime(6)
	if !(t2 < t4 && t4 < t6) {
		t.Errorf("OptTime not monotone: %g, %g, %g", t2, t4, t6)
	}
	// A second call reads the same table.
	if OptTime(4) != t4 {
		t.Error("cache miss on repeat")
	}
}

func TestCartesianFallback(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, "select o_id from orders, nation where o_id < 3")
	op, _ := exec.Build(res.Root, f.ctx)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*25 {
		t.Errorf("cartesian rows = %d, want 75", len(rows))
	}
}

// setRows maps each relation set the plan produces — a scan's, or a
// join's with everything under it — to the node's row estimate.
func setRows(res *Result) map[uint32]float64 {
	bit := map[string]uint32{}
	for i, rel := range res.Query.Rels {
		bit[rel.Binding] = 1 << uint(i)
	}
	out := map[uint32]float64{}
	var set func(n plan.Node) uint32
	set = func(n plan.Node) uint32 {
		var s uint32
		switch x := n.(type) {
		case *plan.Scan:
			s = bit[x.Binding]
		case *plan.IndexJoin:
			s = bit[x.Binding]
		}
		for _, c := range n.Children() {
			s |= set(c)
		}
		switch n.(type) {
		case *plan.Scan, *plan.HashJoin, *plan.IndexJoin:
			out[s] = n.Est().Rows
		}
		return s
	}
	set(res.Root)
	return out
}

// An overlay entry is the rows of its relation set, exactly; a set that
// does not contain an overlaid one keeps its estimate.
func TestOverlaySetsItsRelationSetsRows(t *testing.T) {
	f := newFixture(t)
	stmt, err := sql.Parse(`select o_id, n_name from orders, cust, nation
		where orders.o_cust = cust.c_id and cust.c_nation = nation.n_id and o_status = 7`)
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(ov Overlay) *Result {
		t.Helper()
		q, err := Analyze(f.cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		o := &Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 32 << 20, DisableIndexJoin: true, Overlay: ov}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := setRows(optimize(nil))
	const orders, cust, nation, all = 0b001, 0b010, 0b100, 0b111
	ov := Overlay{nation: 3, all: 1234}
	res := optimize(ov)
	if res.Overlay == nil || res.Overlay[all] != 1234 {
		t.Errorf("Result.Overlay = %v, want the optimizer's", res.Overlay)
	}
	got := setRows(res)
	for set, want := range ov {
		if got[set] != want {
			t.Errorf("set %03b: rows %v, overlay says %v", set, got[set], want)
		}
	}
	for _, set := range []uint32{orders, cust, orders | cust} {
		if r, ok := got[set]; ok && r != base[set] {
			t.Errorf("set %03b: rows %v under the overlay, %v without", set, r, base[set])
		}
	}
	if got[orders] == 0 || got[cust] == 0 {
		t.Fatalf("plan does not scan every relation: %v", got)
	}
}

func TestOverlayMerge(t *testing.T) {
	ov := Overlay{1: 10}
	m, added := ov.Merge(Overlay{1: 12})
	if added || m[1] != 12 {
		t.Errorf("merging a known set: %v added=%v, want map[1:12] false", m, added)
	}
	m, added = ov.Merge(Overlay{2: 5})
	if !added || m[1] != 10 || m[2] != 5 {
		t.Errorf("merging a new set: %v added=%v, want map[1:10 2:5] true", m, added)
	}
	if len(ov) != 1 || ov[1] != 10 {
		t.Errorf("Merge modified its receiver: %v", ov)
	}
}

// TestColNDVCappedByCardinality runs a commit stream that deletes the
// oldest keys of a table and inserts as many new ones: the table's size
// holds while the key column's sketch, which cannot forget a deleted
// value, counts every key it ever saw. The distinct count the optimizer
// reads must stay within the cardinality.
func TestColNDVCappedByCardinality(t *testing.T) {
	f := newFixture(t)
	cust, err := f.cat.Table("cust")
	if err != nil {
		t.Fatal(err)
	}
	next := int64(1000)
	for round := 0; round < 10; round++ {
		tx := f.cat.BeginTxn()
		scan := cust.Heap.Scan().WithSnapshot(tx.Snapshot())
		for deleted := 0; deleted < 200 && scan.Next(); deleted++ {
			if err := tx.Delete(cust, scan.RID(), scan.Tuple().Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if err := scan.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := tx.Insert(cust, types.Tuple{types.NewInt(next), types.NewInt(next % 25)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		tx.Commit()
	}
	card, _ := cust.Stats()
	if card != 1000 {
		t.Fatalf("cardinality %v after the churn, want 1000", card)
	}
	if sketch := cust.ColStat(0).Distinct; sketch <= card {
		t.Fatalf("the key's sketch reads %v distinct values: the churn did not outgrow the table", sketch)
	}
	if ndv := colNDV(cust, 0); ndv > card {
		t.Errorf("colNDV %v exceeds the table's %v rows", ndv, card)
	}
}
