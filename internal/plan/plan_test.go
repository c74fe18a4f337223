package plan

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

func bindSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Table: "r", Name: "a", Kind: types.KindInt},
		types.Column{Table: "r", Name: "b", Kind: types.KindFloat},
		types.Column{Table: "r", Name: "s", Kind: types.KindString},
		types.Column{Table: "r", Name: "d", Kind: types.KindDate},
	)
}

func parseWhere(t *testing.T, cond string) sql.Predicate {
	t.Helper()
	stmt, err := sql.Parse("select a from r where " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	return stmt.Where[0]
}

func testTuple() types.Tuple {
	return types.Tuple{
		types.NewInt(10), types.NewFloat(2.5), types.NewString("BUILDER"), types.NewDate(9000),
	}
}

func TestBindAndEvalComparisons(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"a = 10", true},
		{"a <> 10", false},
		{"a < 11", true},
		{"a <= 10", true},
		{"a > 10", false},
		{"a >= 10", true},
		{"b = 2.5", true},
		{"a + 5 = 15", true},
		{"a * 2 - 5 = 15", true},
		{"a / 2 = 5", true},
		{"b * 4 = a", true},
		{"s = 'BUILDER'", true},
		{"s = 'other'", false},
		{"a between 5 and 15", true},
		{"a between 11 and 15", false},
		{"a in (1, 10, 100)", true},
		{"a in (1, 2)", false},
		{"s like 'BUILD%'", true},
		{"s like '%ILD%'", true},
		{"s like 'B_ILDER'", true},
		{"s like 'X%'", false},
		{"d >= date '1994-01-01'", true},
		{"d < date '1994-01-01' + 10000", true},
	}
	sch := bindSchema()
	for _, c := range cases {
		p, err := BindPred(parseWhere(t, c.cond), sch)
		if err != nil {
			t.Fatalf("bind %q: %v", c.cond, err)
		}
		got, err := p.Test(testTuple(), nil)
		if err != nil {
			t.Fatalf("test %q: %v", c.cond, err)
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestBindHostVar(t *testing.T) {
	sch := bindSchema()
	p, err := BindPred(parseWhere(t, "a < :cut"), sch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Test(testTuple(), Params{"cut": types.NewInt(50)})
	if err != nil || !got {
		t.Errorf("a < :cut{50} = %v, %v", got, err)
	}
	got, _ = p.Test(testTuple(), Params{"cut": types.NewInt(5)})
	if got {
		t.Error("a < :cut{5} = true")
	}
	if _, err := p.Test(testTuple(), nil); err == nil {
		t.Error("unbound host variable did not error")
	}
}

func TestNullComparisonsFail(t *testing.T) {
	sch := bindSchema()
	p, _ := BindPred(parseWhere(t, "a = 10"), sch)
	nullTup := types.Tuple{types.Null(), types.Null(), types.Null(), types.Null()}
	got, err := p.Test(nullTup, nil)
	if err != nil || got {
		t.Errorf("NULL = 10 evaluated to %v, %v", got, err)
	}
	between, _ := BindPred(parseWhere(t, "a between 1 and 20"), sch)
	if got, _ := between.Test(nullTup, nil); got {
		t.Error("NULL between 1 and 20 = true")
	}
	in, _ := BindPred(parseWhere(t, "a in (1, 2)"), sch)
	if got, _ := in.Test(nullTup, nil); got {
		t.Error("NULL in (...) = true")
	}
}

func TestBindErrors(t *testing.T) {
	sch := bindSchema()
	if _, err := BindPred(parseWhere(t, "zzz = 1"), sch); err == nil {
		t.Error("binding unknown column succeeded")
	}
	stmt, _ := sql.Parse("select sum(a) from r")
	if _, err := Bind(stmt.Select[0].Expr, sch); err == nil {
		t.Error("binding aggregate in scalar context succeeded")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true},
		{"", "%", true},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "%%", true},
		{"abc", "", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppX", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestExprStrings(t *testing.T) {
	sch := bindSchema()
	p, _ := BindPred(parseWhere(t, "a + 1 < :v"), sch)
	if s := p.String(); !strings.Contains(s, "r.a") || !strings.Contains(s, ":v") {
		t.Errorf("Pred.String() = %q", s)
	}
}

func TestExprKinds(t *testing.T) {
	sch := bindSchema()
	stmt, _ := sql.Parse("select a + 1, b * 2, d - 30 from r")
	wantKinds := []types.Kind{types.KindInt, types.KindFloat, types.KindDate}
	for i, item := range stmt.Select {
		e, err := Bind(item.Expr, sch)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind() != wantKinds[i] {
			t.Errorf("expr %d kind = %v, want %v", i, e.Kind(), wantKinds[i])
		}
	}
}

func TestObservedHelpers(t *testing.T) {
	o := &Observed{Rows: 4, Bytes: 100}
	if o.AvgTupleBytes() != 25 {
		t.Errorf("AvgTupleBytes = %g", o.AvgTupleBytes())
	}
	empty := &Observed{}
	if empty.AvgTupleBytes() != 0 {
		t.Error("empty AvgTupleBytes != 0")
	}
	if UniqueKey([]int{2, 5}) != "2,5" {
		t.Errorf("UniqueKey = %q", UniqueKey([]int{2, 5}))
	}
}

func TestColExprOutOfRange(t *testing.T) {
	e := &ColExpr{Idx: 9, Col: types.Column{Name: "x"}}
	if _, err := e.Eval(types.Tuple{types.NewInt(1)}, nil); err == nil {
		t.Error("out-of-range ColExpr did not error")
	}
}

func TestPredColumns(t *testing.T) {
	for cond, want := range map[string][]int{
		"a = 10":                    {0},
		"10 < a":                    {0},
		"d between a and a + b":     {0, 1, 3},
		"s like 'B%'":               {2},
		"a in (1, 2, 3)":            {0},
		"b * 4 = a":                 {0, 1},
		"a = :x":                    {0},
		"a + a - a = a":             {0},
		"d >= 9000":                 {3},
		"s = 'x'":                   {2},
		"a * 2 - 5 between b and d": {0, 1, 3},
	} {
		p, err := BindPred(parseWhere(t, cond), bindSchema())
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		got, ok := PredColumns(p)
		if !ok || !slices.Equal(got, want) {
			t.Errorf("PredColumns(%s) = %v, %v; want %v", cond, got, ok, want)
		}
	}
	if got, ok := PredColumns(&CmpPred{Left: &ConstExpr{Val: types.NewInt(1)}, Right: &ConstExpr{Val: types.NewInt(1)}}); !ok || len(got) != 0 {
		t.Errorf("constant predicate reads %v, %v", got, ok)
	}

	// Shapes the helper does not know are reported, not guessed at.
	type futurePred struct{ Pred }
	type futureExpr struct{ Expr }
	col := &ColExpr{Idx: 1}
	for name, p := range map[string]Pred{
		"unknown predicate":  futurePred{&LikePred{Expr: col}},
		"unknown expression": &CmpPred{Left: col, Right: futureExpr{col}},
		"nested unknown":     &InPred{Expr: col, List: []Expr{&BinExpr{Op: '+', Left: col, Right: futureExpr{col}}}},
		"negative ordinal":   &CmpPred{Left: &ColExpr{Idx: -1}, Right: col},
	} {
		if got, ok := PredColumns(p); ok {
			t.Errorf("%s: PredColumns = %v, true", name, got)
		}
	}
}
