package midquery

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func openTPCD(t *testing.T, sf, zipf float64) *DB {
	t.Helper()
	db := Open(Options{BufferPoolPages: 2048})
	if err := db.LoadTPCD(TPCDConfig{SF: sf, Zipf: zipf, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenCreateInsertQuery(t *testing.T) {
	db := Open(Options{})
	err := db.CreateTable("emp",
		Column{Name: "id", Kind: KindInt, Key: true},
		Column{Name: "dept", Kind: KindString},
		Column{Name: "salary", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("emp", i, fmt.Sprintf("dept%d", i%4), float64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("emp", MaxDiff); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("select dept, count(*) as n, avg(salary) as pay from emp group by dept order by dept", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 25 {
		t.Errorf("count = %v", res.Rows[0][1])
	}
	if res.Cost <= 0 {
		t.Error("no cost recorded")
	}
	if len(res.Columns) != 3 || res.Columns[1] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestInsertConversions(t *testing.T) {
	db := Open(Options{})
	db.CreateTable("x",
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
		Column{Name: "c", Kind: KindFloat},
		Column{Name: "d", Kind: KindInt},
		Column{Name: "e", Kind: KindDate},
	)
	if err := db.Insert("x", int64(1), "s", 2.5, nil, NewDate(9000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("x", struct{}{}, "s", 1.0, 1, nil); err == nil {
		t.Error("bad type accepted")
	}
	if err := db.Insert("nope", 1); err == nil {
		t.Error("insert into missing table accepted")
	}
	// A value of another kind is converted or refused as SQL INSERT
	// converts or refuses it: an int into FLOAT and DATE, a float into
	// INTEGER (truncated), but no string into DATE.
	if err := db.Insert("x", 2, "t", 3, 4.9, 9001); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("insert into x values (3, 't', 3, 4.9, 9001)", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("x", 4, "u", 1.0, 1, "1995-01-02"); err == nil {
		t.Error("a string stored in a DATE column")
	}
	if _, err := db.Exec("insert into x values (4, 'u', 1.0, 1, '1995-01-02')", ExecOptions{}); err == nil {
		t.Error("SQL stored a string in a DATE column")
	}
	res, err := db.Exec("select a, b, c, d, e from x order by a", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !res.Rows[0][3].IsNull() {
		t.Fatalf("rows = %v; want 3, the first with a NULL d", res.Rows)
	}
	for _, r := range res.Rows[1:] { // DB.Insert's row, then SQL's
		if r[2].Kind() != KindFloat || r[2].Float() != 3 || r[3].Kind() != KindInt || r[3].Int() != 4 ||
			r[4].Kind() != KindDate || r[4].Days() != 9001 {
			t.Errorf("row %v: want c FLOAT 3, d INTEGER 4, e DATE 9001", r)
		}
	}
}

func TestAllTPCDQueriesRunInAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-D run")
	}
	db := openTPCD(t, 0.002, 0)
	for _, q := range TPCDQueries() {
		var base []Tuple
		for _, mode := range []Mode{ReoptOff, ReoptFull} {
			res, err := db.Exec(q.SQL, ExecOptions{Mode: mode})
			if err != nil {
				t.Fatalf("%s mode %v: %v", q.Name, mode, err)
			}
			if mode == ReoptOff {
				base = res.Rows
				continue
			}
			compareRows(t, q.Name, res.Rows, base)
		}
	}
}

func compareRows(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows vs %d", label, len(got), len(want))
	}
	key := func(tp Tuple) string {
		parts := make([]string, len(tp))
		for i, v := range tp {
			parts[i] = v.String()
		}
		return strings.Join(parts, "|")
	}
	a := make([]string, len(got))
	b := make([]string, len(want))
	for i := range got {
		a[i] = key(got[i])
		b[i] = key(want[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s row %d: %s vs %s", label, i, a[i], b[i])
		}
	}
}

func TestExplain(t *testing.T) {
	db := openTPCD(t, 0.001, 0)
	text, err := db.Explain(Q("Q5").SQL, ExecOptions{Mode: ReoptFull})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hash-join", "statistics-collector", "aggregate", "seq-scan"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	if _, err := db.Explain("select nothing from nowhere", ExecOptions{}); err == nil {
		t.Error("bad SQL explained")
	}
}

func TestHostVariables(t *testing.T) {
	db := openTPCD(t, 0.001, 0)
	res, err := db.Exec(
		"select count(*) as n from orders where o_totalprice < :cap",
		ExecOptions{Params: map[string]Value{"cap": NewFloat(2000)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := db.Exec("select count(*) as n from orders", ExecOptions{})
	if res.Rows[0][0].Int() >= all.Rows[0][0].Int() {
		t.Error("host-var filter did not filter")
	}
	if _, err := db.Exec("select count(*) as n from orders where o_totalprice < :cap", ExecOptions{}); err == nil {
		t.Error("unbound host variable accepted")
	}
}

func TestResetCost(t *testing.T) {
	db := openTPCD(t, 0.001, 0)
	if db.Cost() <= 0 {
		t.Error("load charged nothing")
	}
	db.ResetCost()
	if db.Cost() != 0 {
		t.Error("ResetCost did not zero the meter")
	}
}

// TestAggregatesOfNonNumericColumns: COUNT, MIN and MAX of a VARCHAR or
// DATE column answer at degree 1 and 2; SUM and AVG of one are planning
// errors that name the function and the kind.
func TestAggregatesOfNonNumericColumns(t *testing.T) {
	db := Open(Options{})
	db.CreateTable("emp",
		Column{Name: "id", Kind: KindInt, Key: true},
		Column{Name: "dept", Kind: KindString},
		Column{Name: "hired", Kind: KindDate},
	)
	for i := 0; i < 40; i++ {
		if err := db.Insert("emp", i, fmt.Sprintf("dept%d", i%4), NewDate(int64(9000+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 2} {
		res, err := db.Exec("select count(dept) as n, min(dept) as lo, max(dept) as hi, count(hired) as nh, min(hired) as first, max(hired) as last from emp", ExecOptions{Parallel: par})
		if err != nil {
			t.Fatalf("degree %d: %v", par, err)
		}
		want := "[[40, dept0, dept3, 40, 1994-08-23, 1994-08-29]]"
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("degree %d: got %s, want %s", par, got, want)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"select id, sum(dept) from emp group by id", "SUM of VARCHAR"},
		{"select avg(hired) from emp", "AVG of DATE"},
	} {
		if _, err := db.Exec(c.sql, ExecOptions{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one that says %q", c.sql, err, c.want)
		}
	}
}
