package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// requiredSets renders each relation's kept columns as
// "binding: col,col" ("binding: *" for an unpruned relation).
func requiredSets(q *Query) []string {
	var out []string
	for _, rel := range q.Rels {
		cols := "*"
		if rel.Cols != nil {
			names := make([]string, len(rel.Cols))
			for i, c := range rel.Cols {
				names[i] = rel.Table.Schema.Columns[c].Name
			}
			cols = strings.Join(names, ",")
		}
		out = append(out, rel.Binding+": "+cols)
	}
	return out
}

// TestRequiredColumnsTPCD pins the required column set of every relation
// of the paper's seven queries: what the select list, GROUP BY and the
// join predicates read, and nothing a pushed-down filter alone reads.
func TestRequiredColumnsTPCD(t *testing.T) {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(m), 256))
	if err := tpcd.Load(cat, tpcd.Config{SF: 0.001}); err != nil {
		t.Fatal(err)
	}
	golden := map[string][]string{
		// l_shipdate is filter-only.
		"Q1": {"lineitem: l_quantity,l_extendedprice,l_discount,l_returnflag,l_linestatus"},
		// l_quantity, l_discount and l_shipdate are filter-only; count(*)
		// needs nothing.
		"Q6": {"lineitem: l_extendedprice"},
		"Q3": {
			"customer: c_custkey", // c_mktsegment is filter-only
			"orders: o_orderkey,o_custkey,o_orderdate,o_shippriority",
			"lineitem: l_orderkey,l_extendedprice",
		},
		"Q10": {
			"customer: c_custkey,c_name,c_nationkey",
			"orders: o_orderkey,o_custkey",
			"lineitem: l_orderkey,l_extendedprice",
			"nation: n_nationkey,n_name",
		},
		"Q5": {
			"customer: c_custkey,c_nationkey",
			"orders: o_orderkey,o_custkey",
			"lineitem: l_orderkey,l_suppkey,l_extendedprice",
			"supplier: s_suppkey,s_nationkey",
			"nation: *",           // all three columns are read
			"region: r_regionkey", // r_name is filter-only
		},
		"Q7": {
			"supplier: s_suppkey,s_nationkey",
			"lineitem: l_orderkey,l_suppkey,l_extendedprice",
			"orders: o_orderkey,o_custkey",
			"customer: c_custkey,c_nationkey",
			"n1: n_nationkey,n_name",
			"n2: n_nationkey,n_name",
		},
		"Q8": {
			"part: p_partkey",
			"supplier: s_suppkey,s_nationkey",
			"lineitem: l_orderkey,l_partkey,l_suppkey,l_extendedprice",
			"orders: o_orderkey,o_custkey",
			"customer: c_custkey,c_nationkey",
			"n1: n_nationkey,n_regionkey",
			"n2: n_nationkey,n_name",
			"region: r_regionkey",
		},
	}
	for _, tq := range tpcd.Queries() {
		stmt, err := sql.Parse(tq.SQL)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Analyze(cat, stmt)
		if err != nil {
			t.Fatalf("%s: %v", tq.Name, err)
		}
		if got := requiredSets(q); !reflect.DeepEqual(got, golden[tq.Name]) {
			t.Errorf("%s required sets:\n got  %q\n want %q", tq.Name, got, golden[tq.Name])
		}
		// Every leaf of the plan carries its relation's set.
		res, err := (&Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 2 << 20}).Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", tq.Name, err)
		}
		byBinding := map[string]*Rel{}
		for i := range q.Rels {
			byBinding[q.Rels[i].Binding] = &q.Rels[i]
		}
		plan.Walk(res.Root, func(n plan.Node) {
			var binding string
			var cols []int
			var out *types.Schema
			switch x := n.(type) {
			case *plan.Scan:
				binding, cols, out = x.Binding, x.Cols, x.Out
			case *plan.IndexJoin:
				binding, cols, out = x.Binding, x.InnerCols, x.InnerOut
			default:
				return
			}
			rel := byBinding[binding]
			if !reflect.DeepEqual(cols, rel.Cols) || out != rel.Out {
				t.Errorf("%s: leaf %s has cols %v, relation has %v", tq.Name, binding, cols, rel.Cols)
			}
			if cols != nil && out.Len() != len(cols) {
				t.Errorf("%s: leaf %s schema has %d columns for %d kept", tq.Name, binding, out.Len(), len(cols))
			}
		})
	}
}

// mustRun executes an optimized plan.
func mustRun(t *testing.T, f *fixture, res *Result) []types.Tuple {
	t.Helper()
	op, err := exec.Build(res.Root, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// scans returns the plan's scans by binding.
func scans(root plan.Node) map[string]*plan.Scan {
	out := map[string]*plan.Scan{}
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out[s.Binding] = s
		}
	})
	return out
}

func TestFilterOnlyColumnStopsAtTheScan(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_id from orders where o_status = 3 and o_price < 100`)
	s := scans(res.Root)["orders"]
	if !reflect.DeepEqual(s.Cols, []int{0}) {
		t.Fatalf("cols = %v, want [0]", s.Cols)
	}
	for _, name := range []string{"o_status", "o_price"} {
		if _, err := s.Out.Resolve("orders", name); err == nil {
			t.Errorf("filter-only column %s is in the scan's schema %s", name, s.Out)
		}
	}
	if len(s.Filters) != 2 {
		t.Fatalf("filters = %d, want both pushed down", len(s.Filters))
	}
	if want := "orders filter orders.o_status = 3 and orders.o_price < 100 cols o_id"; s.Describe() != want {
		t.Errorf("describe = %q, want %q", s.Describe(), want)
	}
	// A column a filter and the select list both read is kept.
	res = f.optimize(t, `select o_price from orders where o_price < 100`)
	if s := scans(res.Root)["orders"]; !reflect.DeepEqual(s.Cols, []int{3}) {
		t.Errorf("cols = %v, want [3]", s.Cols)
	}
	// Nothing required: one column stands in, an empty tuple being
	// indistinguishable from end of stream.
	res = f.optimize(t, `select count(*) as n from orders where o_status = 3`)
	if s := scans(res.Root)["orders"]; !reflect.DeepEqual(s.Cols, []int{0}) {
		t.Errorf("count(*) cols = %v, want [0]", s.Cols)
	}
	// The pruned plans still run.
	rows := mustRun(t, f, res)
	if len(rows) != 1 || rows[0][0].Int() != 2000 {
		t.Errorf("count(*) = %v, want 2000", rows)
	}
}

func TestStarAndDMLKeepEveryColumn(t *testing.T) {
	f := newFixture(t)
	for _, src := range []string{
		`select * from orders where o_status = 3`,
		`select orders.* from orders, cust where o_cust = c_id`,
		// Every column named: the same as a star.
		`select o_id, o_cust, o_status, o_price from orders`,
	} {
		res := f.optimize(t, src)
		s := scans(res.Root)["orders"]
		if s.Cols != nil || s.Out.Len() != 4 {
			t.Errorf("%s: cols = %v, schema %s; want every column", src, s.Cols, s.Out)
		}
		if strings.Contains(s.Describe(), " cols ") {
			t.Errorf("%s: unpruned scan describes columns: %s", src, s.Describe())
		}
	}
	// t.* prunes the other relation.
	res := f.optimize(t, `select orders.* from orders, cust where o_cust = c_id`)
	plan.Walk(res.Root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			if x.Binding == "cust" && !reflect.DeepEqual(x.Cols, []int{0}) {
				t.Errorf("cust cols = %v, want [0]", x.Cols)
			}
		case *plan.IndexJoin:
			if x.Binding == "cust" && !reflect.DeepEqual(x.InnerCols, []int{0}) {
				t.Errorf("cust inner cols = %v, want [0]", x.InnerCols)
			}
		}
	})
	// DML reads and writes whole tuples: its plans hold no scan to prune.
	for _, src := range []string{
		`update orders set o_price = 1.5 where o_status = 3`,
		`delete from orders where o_status = 3`,
		`insert into cust (c_id, c_nation) values (5000, 1)`,
	} {
		stmt, err := sql.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.PlanDML(f.cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(node, func(n plan.Node) {
			if s, ok := n.(*plan.Scan); ok && s.Cols != nil {
				t.Errorf("%s: DML plan scans columns %v", src, s.Cols)
			}
		})
	}
}

func TestSelfJoinPrunesEachBinding(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select a.o_price, b.o_status from orders a, orders b
		where a.o_id = b.o_cust and b.o_price < 10`)
	got := scans(res.Root)
	if a := got["a"]; a == nil || !reflect.DeepEqual(a.Cols, []int{0, 3}) {
		t.Errorf("a cols = %v, want [0 3] (o_id, o_price)", a)
	}
	if b := got["b"]; b == nil || !reflect.DeepEqual(b.Cols, []int{1, 2}) {
		t.Errorf("b cols = %v, want [1 2] (o_cust, o_status)", b)
	}
	if _, err := got["a"].Out.Resolve("b", "o_status"); err == nil {
		t.Error("a's schema resolves b's column")
	}
	rows := mustRun(t, f, res)
	// b.o_price < 10 keeps i%500 < 10 (400 rows); each has one a match.
	if len(rows) != 400 {
		t.Errorf("self-join returned %d rows, want 400", len(rows))
	}
}

// TestScanBytesFollowKeptColumns: a scan's estimated size is rows times
// the header plus the kept columns' measured widths, and an unanalyzed
// table splits its tuple size by kind.
func TestScanBytesFollowKeptColumns(t *testing.T) {
	f := newFixture(t)
	s := scans(f.optimize(t, `select n_name from nation`).Root)["nation"]
	// n_name: kind byte + length + 5 bytes.
	if got, want := s.Est().Bytes/s.Est().Rows, float64(types.TupleHeaderSize+1+4+5); got != want {
		t.Errorf("bytes per row = %g, want %g", got, want)
	}
	full := scans(f.optimize(t, `select * from nation`).Root)["nation"]
	if got, want := full.Est().Bytes/full.Est().Rows, float64(types.TupleHeaderSize+9+10); got != want {
		t.Errorf("full bytes per row = %g, want %g", got, want)
	}
	// A registered temp has a tuple size but no per-column widths.
	heap := storage.NewTempFile(f.ctx.Pool, f.ctx.Meter)
	for i := 0; i < 10; i++ {
		heap.Append(types.Tuple{types.NewInt(int64(i)), types.NewString("abcdefghij")})
	}
	if _, err := f.cat.RegisterTemp("tmp", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindString}), heap); err != nil {
		t.Fatal(err)
	}
	defer f.cat.DropTable("tmp")
	ts := scans(f.optimize(t, `select k from tmp`).Root)["tmp"]
	avg := float64(types.TupleHeaderSize + 9 + 15)
	if got, want := ts.Est().Bytes/ts.Est().Rows, avg*9/(9+24); got != want {
		t.Errorf("temp bytes per row = %g, want %g", got, want)
	}
}

// TestExplainShowsKeptColumns is the EXPLAIN golden for a pruned plan:
// each leaf that reads a table prints the columns it keeps, an index
// join names its inner key although InnerCol is a table ordinal and the
// inner schema is narrow, and a cloned plan (what the plan cache hands
// out) prints and prunes the same.
func TestExplainShowsKeptColumns(t *testing.T) {
	f := newFixture(t)
	res := f.optimize(t, `select o_price from orders, cust where o_cust = c_id and o_id = 5 and c_nation < 20`)
	want := strings.Join([]string{
		"project [orders.o_price]",
		"  indexed-join [orders.o_cust = cust.c_id (index on cust) cols c_id]",
		"    seq-scan [orders filter orders.o_id = 5 cols o_cust,o_price]",
	}, "\n") + "\n"
	strip := func(n plan.Node) string { // drop the estimates, keep labels and arguments
		var b strings.Builder
		for _, line := range strings.SplitAfter(obs.FormatPlan(n), "\n") {
			if i := strings.Index(line, "] (est rows="); i >= 0 {
				line = line[:i+1] + "\n"
			}
			b.WriteString(line)
		}
		return b.String()
	}
	if got := strip(res.Root); got != want {
		t.Fatalf("plan:\n%swant:\n%s", got, want)
	}
	clone := plan.Clone(res.Root)
	if got := strip(clone); got != want {
		t.Errorf("cloned plan:\n%swant:\n%s", got, want)
	}
	res.Root = clone
	if rows := mustRun(t, f, res); len(rows) != 1 || rows[0][0].Float() != 5.5 {
		t.Errorf("rows = %v, want one row of 5.5", rows)
	}
}
