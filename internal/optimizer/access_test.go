package optimizer

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// leafOf returns the plan's only scan.
func leafOf(t *testing.T, res *Result) *plan.Scan {
	t.Helper()
	var leaf *plan.Scan
	plan.Walk(res.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			leaf = s
		}
	})
	if leaf == nil {
		t.Fatalf("no scan in\n%s", obs.FormatPlan(res.Root))
	}
	return leaf
}

// A filter that bounds an indexed column makes the leaf an index scan
// when the index formula prices it below a seq scan, and keeps the seq
// scan when it does not; either way the plan returns the filtered rows,
// and the keyed leaf's SelfCost re-derives its planned self cost.
func TestLeafTakesTheCheaperAccessPath(t *testing.T) {
	f := newFixture(t)
	o := &Optimizer{Weights: f.ctx.Meter.Weights(), MemBudget: 64 << 20}
	for _, tc := range []struct {
		src    string
		params plan.Params
		key    string // the range the leaf reads, "" for a seq scan
		rows   int
	}{
		{"select c_nation from cust where c_id = :c", plan.Params{"c": types.NewInt(17)}, "c_id = :c", 1},
		{"select c_nation from cust where c_id = 17", nil, "c_id = 17", 1},
		{"select c_nation from cust where 17 = c_id and c_nation = 2", nil, "c_id = 17", 0},
		{"select c_nation from cust where c_id >= 10 and c_id < 20", nil, "c_id >= 10 and c_id < 20", 10},
		{"select c_nation from cust where c_id between 990 and 2000", nil, "c_id >= 990 and c_id <= 2000", 10},
		{"select c_nation from cust where c_id >= 5", nil, "", 995},
		{"select c_nation from cust where c_nation = 3", nil, "", 40},
		{"select o_id from orders where o_id = 3", nil, "", 1}, // no index on o_id
	} {
		res := f.optimize(t, tc.src)
		leaf := leafOf(t, res)
		got := ""
		if leaf.Key != nil {
			got = leaf.Key.String(leaf.Table.Schema.Columns[leaf.Key.Col].Name)
		}
		if got != tc.key {
			t.Errorf("%s: leaf reads %q, want %q\n%s", tc.src, got, tc.key, obs.FormatPlan(res.Root))
		}
		if e := leaf.Est(); o.SelfCost(leaf, 0) != e.SelfCost {
			t.Errorf("%s: SelfCost = %v, planned %v", tc.src, o.SelfCost(leaf, 0), e.SelfCost)
		}
		ctx := *f.ctx
		ctx.Params = tc.params
		op, err := exec.Build(res.Root, &ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.src, len(rows), tc.rows)
		}
	}
}

// An equality of a declared key with a host variable is estimated at one
// row, as with a literal, also when the parametric scenarios fix every
// other host variable's selectivity.
func TestKeyEqualityWithAHostVariableIsExact(t *testing.T) {
	f := newFixture(t)
	for _, hv := range []float64{0, 0.5} {
		stmt, err := sql.Parse("select c_nation from cust where c_id = :c")
		if err != nil {
			t.Fatal(err)
		}
		q, err := Analyze(f.cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		o := &Optimizer{Weights: f.ctx.Meter.Weights(), HostVarSelectivity: hv}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if rows := leafOf(t, res).Est().Rows; rows != 1 {
			t.Errorf("host-variable selectivity %v: key equality estimated at %v rows, want 1", hv, rows)
		}
	}
	res := f.optimize(t, "select c_id from cust where c_nation = :n")
	if rows := leafOf(t, res).Est().Rows; rows == 1 {
		t.Error("an equality on a non-key column with a host variable was estimated exact")
	}
}

// Target gives UPDATE and DELETE the leaf's access path.
func TestTargetIsTheLeafsAccessPath(t *testing.T) {
	f := newFixture(t)
	o := &Optimizer{Weights: f.ctx.Meter.Weights()}
	cust, err := f.cat.Table("cust")
	if err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]string{
		"delete from cust where c_id = :c":                   "c_id = :c",
		"update cust set c_nation = 1 where c_id < 4":        "c_id < 4",
		"update cust set c_nation = 1 where c_nation = 4":    "",
		"delete from cust where cust.c_id = 9 and c_id > 10": "c_id = 9",
		"delete from cust":                                   "",
	} {
		stmt, err := sql.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		var where []sql.Predicate
		switch s := stmt.(type) {
		case *sql.UpdateStmt:
			where = s.Where
		case *sql.DeleteStmt:
			where = s.Where
		}
		key, err := o.Target(cust, where)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if key != nil {
			got = key.String(cust.Schema.Columns[key.Col].Name)
		}
		if got != want {
			t.Errorf("%s: target read through %q, want %q", src, got, want)
		}
	}
}
