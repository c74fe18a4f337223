package types

import (
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Table: "r", Name: "a", Kind: KindInt, Key: true},
		Column{Table: "r", Name: "b", Kind: KindString},
		Column{Table: "s", Name: "a", Kind: KindInt},
	)
}

func TestResolveQualified(t *testing.T) {
	s := testSchema()
	i, err := s.Resolve("r", "a")
	if err != nil || i != 0 {
		t.Errorf("Resolve(r.a) = %d, %v", i, err)
	}
	i, err = s.Resolve("s", "a")
	if err != nil || i != 2 {
		t.Errorf("Resolve(s.a) = %d, %v", i, err)
	}
}

func TestResolveBare(t *testing.T) {
	s := testSchema()
	i, err := s.Resolve("", "b")
	if err != nil || i != 1 {
		t.Errorf("Resolve(b) = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "a"); err == nil {
		t.Error("ambiguous bare reference did not error")
	}
	if _, err := s.Resolve("", "zzz"); err == nil {
		t.Error("unknown column did not error")
	}
	if _, err := s.Resolve("t", "a"); err == nil {
		t.Error("unknown table did not error")
	}
}

// Find answers what Resolve answers, without building an error for the
// caller to throw away.
func TestFindReportsMissesWithoutAllocating(t *testing.T) {
	s := testSchema()
	for _, c := range []struct {
		table, name string
		idx         int
		ambiguous   bool
	}{{"r", "a", 0, false}, {"S", "A", 2, false}, {"", "b", 1, false}, {"", "a", -1, true}, {"", "zzz", -1, false}, {"t", "a", -1, false}} {
		idx, ambiguous := s.Find(c.table, c.name)
		if idx != c.idx || ambiguous != c.ambiguous {
			t.Errorf("Find(%q, %q) = %d, %v; want %d, %v", c.table, c.name, idx, ambiguous, c.idx, c.ambiguous)
		}
		if _, err := s.Resolve(c.table, c.name); (err == nil) != (c.idx >= 0) {
			t.Errorf("Resolve(%q, %q) = %v, Find says index %d", c.table, c.name, err, c.idx)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Find("t", "zzz"); s.Find("", "a") }); allocs != 0 {
		t.Errorf("a miss and an ambiguous reference allocated %.0f times", allocs)
	}
}

func TestResolveCaseInsensitive(t *testing.T) {
	s := testSchema()
	i, err := s.Resolve("R", "B")
	if err != nil || i != 1 {
		t.Errorf("Resolve(R.B) = %d, %v", i, err)
	}
}

func TestConcatProject(t *testing.T) {
	s := testSchema()
	o := NewSchema(Column{Table: "t", Name: "x", Kind: KindFloat})
	c := s.Concat(o)
	if c.Len() != 4 || c.Columns[3].Name != "x" {
		t.Errorf("Concat = %v", c)
	}
	p := c.Project([]int{3, 0})
	if p.Len() != 2 || p.Columns[0].Name != "x" || p.Columns[1].Name != "a" {
		t.Errorf("Project = %v", p)
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema(Column{Table: "r", Name: "a", Kind: KindInt})
	if got := s.String(); got != "(r.a INTEGER)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTupleCloneConcat(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := a.Clone()
	b[0] = NewInt(2)
	if !a[0].Equal(NewInt(1)) {
		t.Error("Clone aliases the original")
	}
	c := a.Concat(Tuple{NewFloat(3)})
	if len(c) != 3 || !c[2].Equal(NewFloat(3)) {
		t.Errorf("Concat = %v", c)
	}
	if got := a.String(); got != "[1, x]" {
		t.Errorf("Tuple.String() = %q", got)
	}
}

func TestColumnQualifiedName(t *testing.T) {
	if got := (Column{Table: "r", Name: "a"}).QualifiedName(); got != "r.a" {
		t.Errorf("QualifiedName = %q", got)
	}
	if got := (Column{Name: "cnt"}).QualifiedName(); got != "cnt" {
		t.Errorf("computed QualifiedName = %q", got)
	}
}
