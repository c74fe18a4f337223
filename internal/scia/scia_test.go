package scia

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

type fixture struct {
	cat *catalog.Catalog
	ctx *exec.Ctx
}

// newFixture builds fact(f_id key, f_dim, f_grp, f_val) ⟗ dim(d_id key,
// d_x) with configurable histogram family.
func newFixture(t *testing.T, family histogram.Family, skipHist bool) *fixture {
	t.Helper()
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 1024)
	cat := catalog.New(pool)
	fact, err := cat.CreateTable("fact", types.NewSchema(
		types.Column{Name: "f_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "f_dim", Kind: types.KindInt},
		types.Column{Name: "f_grp", Kind: types.KindInt},
		types.Column{Name: "f_val", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		fact.Insert(types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 200)),
			types.NewInt(int64(i % 40)),
			types.NewFloat(float64(i % 97)),
		})
	}
	dim, _ := cat.CreateTable("dim", types.NewSchema(
		types.Column{Name: "d_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "d_x", Kind: types.KindInt},
	))
	for i := 0; i < 200; i++ {
		dim.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
	}
	// dim2 is deliberately larger than the filtered fact so the DP makes
	// fact the leftmost build relation — the plan shape where fact's
	// columns are observable at actionable points.
	dim2, _ := cat.CreateTable("dim2", types.NewSchema(
		types.Column{Name: "e_id", Kind: types.KindInt, Key: true},
		types.Column{Name: "e_y", Kind: types.KindInt},
	))
	for i := 0; i < 9000; i++ {
		dim2.Insert(types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
	}
	opts := catalog.AnalyzeOptions{Family: family, SkipHistograms: skipHist}
	cat.Analyze("fact", opts)
	cat.Analyze("dim", opts)
	cat.Analyze("dim2", opts)
	return &fixture{cat: cat, ctx: &exec.Ctx{Pool: pool, Meter: m, Params: plan.Params{}}}
}

func (f *fixture) optimize(t *testing.T, src string) *optimizer.Result {
	t.Helper()
	return f.optimizeWith(t, src, false)
}

// optimizeWith optionally restricts the planner to hash joins, for tests
// about a hash join's properties that must not depend on which join
// method happens to be cheaper on the fixture.
func (f *fixture) optimizeWith(t *testing.T, src string, hashOnly bool) *optimizer.Result {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := optimizer.Analyze(f.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	o := &optimizer.Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 64 << 20, DisableIndexJoin: hashOnly}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// joinGroupQuery has two hash joins, and its fact filter is selective
// enough (~1%) that fact becomes the leftmost build relation — the plan
// shape where fact's columns are observable at actionable points.
const joinGroupQuery = `select f_grp, avg(f_val) as av from fact, dim, dim2
	where fact.f_dim = dim.d_id and dim.d_x = dim2.e_id and f_val < 1 group by f_grp`

func TestInsertPlacesCollectors(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	res := f.optimize(t, joinGroupQuery)
	ins, err := Insert(res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 2 {
		t.Fatalf("inserted %d collectors, want >= 2 (scan output + join output)", len(ins))
	}
	// The plan must still contain all collectors reachable from root.
	count := 0
	plan.Walk(res.Root, func(n plan.Node) {
		if _, ok := n.(*plan.Collector); ok {
			count++
		}
	})
	if count != len(ins) {
		t.Errorf("plan has %d collectors, Insert reported %d", count, len(ins))
	}
}

func TestInsertedPlanExecutesIdentically(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	res := f.optimize(t, joinGroupQuery)
	plain, err := exec.Collect(mustOp(t, f, res.Root))
	if err != nil {
		t.Fatal(err)
	}

	res2 := f.optimize(t, joinGroupQuery)
	if _, err := Insert(res2, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	reports := 0
	f.ctx.StatsSink = func(o *plan.Observed) { reports++ }
	collected, err := exec.Collect(mustOp(t, f, res2.Root))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(collected) {
		t.Fatalf("collector changed results: %d vs %d rows", len(plain), len(collected))
	}
	if reports == 0 {
		t.Error("no statistics reports delivered")
	}
}

func mustOp(t *testing.T, f *fixture, root plan.Node) exec.Operator {
	t.Helper()
	op, err := exec.Build(root, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestMuBudgetRespected(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)

	res := f.optimize(t, joinGroupQuery)
	total := res.Root.Est().Cost
	cfg := DefaultConfig()
	ins, _ := Insert(res, cfg)
	spent := 0.0
	for _, i := range ins {
		if !i.Collector.Spec.Empty() {
			spent += i.Collector.Est().SelfCost
		}
	}
	if spent > cfg.Mu*total*1.001 {
		t.Errorf("collection cost %.2f exceeds mu budget %.2f", spent, cfg.Mu*total)
	}

	// A near-zero mu keeps the free cardinality collectors but drops
	// all priced statistics.
	res2 := f.optimize(t, joinGroupQuery)
	cfg.Mu = 1e-9
	ins2, _ := Insert(res2, cfg)
	for _, i := range ins2 {
		if !i.Collector.Spec.Empty() {
			t.Errorf("stat %v chosen under mu=0", i.Stats)
		}
	}
	if len(ins2) == 0 {
		t.Error("free collectors missing under tiny mu")
	}
}

func TestGroupByUniqueCandidateChosen(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	res := f.optimize(t, joinGroupQuery)
	ins, _ := Insert(res, DefaultConfig())
	// The unique-count stat must be collected at the earliest point
	// whose schema contains f_grp. With dim as the build side, that is
	// the first point carrying fact's columns.
	earliest := -1
	for idx, i := range ins {
		sch := i.Collector.Input.Schema()
		if _, err := sch.Resolve("fact", "f_grp"); err == nil {
			earliest = idx
			break
		}
	}
	if earliest < 0 {
		t.Fatal("no collection point carries fact.f_grp")
	}
	found := false
	for idx, i := range ins {
		if len(i.Collector.Spec.UniqueCols) > 0 {
			found = true
			if idx != earliest {
				t.Errorf("unique collector at point %d (%s), want earliest %d", idx, i.Point, earliest)
			}
		}
	}
	if !found {
		t.Error("no unique-count collector for GROUP BY (high inaccuracy potential should rank first)")
	}
}

func TestLevelsBaseHistogramFamilies(t *testing.T) {
	cases := []struct {
		family histogram.Family
		skip   bool
		want   Level
	}{
		{histogram.MaxDiff, false, Low},
		{histogram.EndBiased, false, Low},
		{histogram.EquiWidth, false, Medium},
		{histogram.EquiDepth, false, Medium},
		{histogram.MaxDiff, true, High}, // no histograms stored
	}
	for _, c := range cases {
		f := newFixture(t, c.family, c.skip)
		res := f.optimize(t, "select f_id from fact where f_val < 10")
		lt := newLevelTracer(res)
		if got := lt.baseColLevel("fact", "f_val"); got != c.want {
			t.Errorf("family=%v skip=%v: level = %v, want %v", c.family, c.skip, got, c.want)
		}
	}
}

func TestLevelsStaleBump(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	res := f.optimize(t, "select f_id from fact where f_val < 10")
	tbl, _ := f.cat.Table("fact")
	lt := newLevelTracer(res)
	if got := lt.baseColLevel("fact", "f_val"); got != Low {
		t.Fatalf("fresh level = %v", got)
	}
	tbl.UpdatesSinceAnalyze = int64(tbl.Cardinality) // heavy churn
	if got := lt.baseColLevel("fact", "f_val"); got != Medium {
		t.Errorf("stale level = %v, want Medium", got)
	}
}

func TestLevelsMultiAttrAndHostVar(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	res := f.optimize(t, "select f_id from fact where f_val < 10")
	lt := newLevelTracer(res)

	parsePred := func(cond string) sql.Predicate {
		stmt, err := sql.Parse("select f_id from fact where " + cond)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Where[0]
	}
	if got := lt.filterLevel("fact", parsePred("f_val < 10")); got != Low {
		t.Errorf("single-attr filter = %v, want Low", got)
	}
	// Two attributes of the same relation: correlation risk, bump.
	if got := lt.filterLevel("fact", parsePred("f_val < f_grp")); got != Medium {
		t.Errorf("multi-attr filter = %v, want Medium", got)
	}
	// Host variable: unknowable selectivity.
	if got := lt.filterLevel("fact", parsePred("f_val < :v")); got != High {
		t.Errorf("host-var filter = %v, want High", got)
	}
}

func TestLevelsJoinKeyRule(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	// fact.f_dim = dim.d_id: d_id is a key, so the join keeps its
	// inputs' level.
	res := f.optimizeWith(t, "select f_id from fact, dim where fact.f_dim = dim.d_id", true)
	lt := newLevelTracer(res)
	var join *plan.HashJoin
	plan.Walk(res.Root, func(n plan.Node) {
		if j, ok := n.(*plan.HashJoin); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no hash join in a plan optimized with index joins disabled")
	}
	if got := lt.pointLevel(join); got != Low {
		t.Errorf("key equi-join level = %v, want Low", got)
	}

	// fact.f_grp = dim.d_x: neither is a key — bump.
	res2 := f.optimize(t, "select f_id from fact, dim where fact.f_grp = dim.d_x")
	lt2 := newLevelTracer(res2)
	var join2 plan.Node
	plan.Walk(res2.Root, func(n plan.Node) {
		switch n.(type) {
		case *plan.HashJoin, *plan.IndexJoin:
			join2 = n
		}
	})
	if got := lt2.pointLevel(join2); got != Medium {
		t.Errorf("non-key equi-join level = %v, want Medium", got)
	}
}

func TestLevelsOrdering(t *testing.T) {
	if !(Low < Medium && Medium < High) {
		t.Fatal("level ordering broken")
	}
	if High.bump() != High {
		t.Error("bump must saturate")
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Error("level names")
	}
}

func TestSingleTableNoUsefulStats(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	// No join: no checkpoint ever reads a report, so not even the free
	// cardinality collector is placed.
	res := f.optimize(t, "select f_id from fact where f_val < 10")
	ins, err := Insert(res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 0 {
		t.Errorf("a zero-join plan got %d collectors: %v", len(ins), ins)
	}
}

// TestCollectorsOnlyOnBuildInputs holds every placement to the rule: a
// collector's consumer, looking through filters, is a hash
// join reading it as its build input. The spine's top result, an index
// join's outer and a single-table scan get none.
func TestCollectorsOnlyOnBuildInputs(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	indexed := newFixture(t, histogram.MaxDiff, false)
	if err := indexed.cat.CreateIndex("dim2", "e_id"); err != nil {
		t.Fatal(err)
	}
	indexed.cat.Analyze("dim2", catalog.AnalyzeOptions{Family: histogram.MaxDiff})
	// Ten dim rows probe dim2's index; that join's output builds the hash
	// join with fact.
	const indexedQuery = `select f_grp, count(*) as n from fact, dim, dim2
		where fact.f_dim = dim.d_id and dim.d_x = dim2.e_id and d_id < 10 group by f_grp`
	for _, c := range []struct {
		f         *fixture
		src       string
		want      int
		indexJoin bool // the plan must hold an index join
	}{
		{f, joinGroupQuery, 2, false}, // the leaf scan and the first join's output
		{f, "select f_id from fact, dim where fact.f_dim = dim.d_id", 1, false},
		{f, "select f_grp, count(*) as n from fact where f_val < 10 group by f_grp", 0, false},
		{indexed, indexedQuery, 1, true}, // the fact scan is the index join's outer
	} {
		res := c.f.optimizeWith(t, c.src, !c.indexJoin)
		ins, err := Insert(res, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != c.want {
			t.Errorf("%q: %d collectors, want %d\n%s", c.src, len(ins), c.want, obs.FormatPlan(res.Root))
		}
		parents := parentLinks(res.Root)
		sawIndexJoin := false
		plan.Walk(res.Root, func(n plan.Node) {
			_, ok := n.(*plan.IndexJoin)
			sawIndexJoin = sawIndexJoin || ok
		})
		if sawIndexJoin != c.indexJoin {
			t.Fatalf("%q: index join in plan %v, want %v\n%s", c.src, sawIndexJoin, c.indexJoin, obs.FormatPlan(res.Root))
		}
		for _, in := range ins {
			var below plan.Node = in.Collector
			p := parents[below]
			for {
				if _, through := p.(*plan.Filter); !through {
					break
				}
				below, p = p, parents[p]
			}
			if hj, ok := p.(*plan.HashJoin); !ok || hj.Build != below {
				t.Errorf("%q: collector at %s feeds %T, not a hash join's build", c.src, in.Point, p)
			}
		}
	}
}

// A build input whose estimate is exact carries no collector: an index
// scan of one declared key, host variable or not, graded low, reports
// the row the optimizer already knew of. The same join built from a
// scan whose filter is not a key equality keeps its collector.
func TestNoCollectorOverAnExactKeyLookup(t *testing.T) {
	f := newFixture(t, histogram.MaxDiff, false)
	if err := f.cat.CreateIndex("dim2", "e_id"); err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]int{
		"select f_val, e_y from fact, dim2 where fact.f_dim = dim2.e_id and e_id = :e": 0,
		"select f_val, e_y from fact, dim2 where fact.f_dim = dim2.e_id and e_id = 12": 0,
		"select f_val, e_y from fact, dim2 where fact.f_dim = dim2.e_id and e_y = :y":  1,
	} {
		res := f.optimizeWith(t, src, true)
		keyed := false
		plan.Walk(res.Root, func(n plan.Node) {
			if s, ok := n.(*plan.Scan); ok && s.Key != nil {
				keyed = true
			}
		})
		if keyed != (want == 0) {
			t.Fatalf("%s: index scan in the plan: %v\n%s", src, keyed, obs.FormatPlan(res.Root))
		}
		ins, err := Insert(res, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != want {
			t.Errorf("%s: %d collectors, want %d\n%s", src, len(ins), want, obs.FormatPlan(res.Root))
		}
	}
}
