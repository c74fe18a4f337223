package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %g, want 2.5", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("Str() = %q, want x", got)
	}
	if got := NewDate(100).Days(); got != 100 {
		t.Errorf("Days() = %d, want 100", got)
	}
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if NewInt(1).IsNull() {
		t.Error("NewInt(1).IsNull() = true")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on int", func() { NewInt(1).Float() })
	mustPanic("Str on float", func() { NewFloat(1).Str() })
	mustPanic("Days on int", func() { NewInt(1).Days() })
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewDate(10), NewDate(20), -1},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		// Numeric promotion across kinds.
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(3.0), NewInt(2), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrderAcrossKinds(t *testing.T) {
	// Incomparable kinds must still form a consistent total order.
	a, b := NewInt(5), NewString("abc")
	if a.Compare(b)+b.Compare(a) != 0 {
		t.Error("cross-kind Compare is not antisymmetric")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	if NewInt(2).Hash() != NewFloat(2.0).Hash() {
		t.Error("equal numeric values 2 and 2.0 hash differently")
	}
	if NewInt(7).Hash() == NewInt(8).Hash() {
		t.Error("distinct ints 7 and 8 collide (suspicious for FNV)")
	}
	f := func(x int64) bool {
		return NewInt(x).Hash() == NewInt(x).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualConsistencyProperty(t *testing.T) {
	// Property: Equal(a,b) implies Hash(a) == Hash(b) for mixed
	// int/float pairs.
	f := func(x int32) bool {
		a, b := NewInt(int64(x)), NewFloat(float64(x))
		return !a.Equal(b) || a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsFloat(t *testing.T) {
	if got := NewInt(4).AsFloat(); got != 4 {
		t.Errorf("AsFloat int = %g", got)
	}
	if got := NewDate(3).AsFloat(); got != 3 {
		t.Errorf("AsFloat date = %g", got)
	}
	if got := NewFloat(1.25).AsFloat(); got != 1.25 {
		t.Errorf("AsFloat float = %g", got)
	}
	if !math.IsNaN(Null().AsFloat()) {
		t.Error("AsFloat null is not NaN")
	}
	if NewString("x").AsFloat() < 0 {
		t.Error("AsFloat string is negative")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{Null(), "NULL"},
		{NewDate(0), "1970-01-01"},
		{NewDateFromTime(time.Date(1996, 3, 1, 12, 0, 0, 0, time.UTC)), "1996-03-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(NewInt(2).Add(NewInt(3))); !got.Equal(NewInt(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(NewInt(7).Div(NewInt(2))); !got.Equal(NewInt(3)) {
		t.Errorf("7/2 = %v, want truncated 3", got)
	}
	if got := mustV(NewFloat(1.5).Mul(NewInt(2))); !got.Equal(NewFloat(3.0)) {
		t.Errorf("1.5*2 = %v", got)
	}
	if got := mustV(NewInt(10).Sub(NewFloat(0.5))); !got.Equal(NewFloat(9.5)) {
		t.Errorf("10-0.5 = %v", got)
	}
	if got := mustV(NewDate(100).Add(NewInt(5))); !got.Equal(NewDate(105)) {
		t.Errorf("date+5 = %v", got)
	}
	if got := mustV(NewDate(100).Sub(NewInt(5))); !got.Equal(NewDate(95)) {
		t.Errorf("date-5 = %v", got)
	}
	if got := mustV(Null().Add(NewInt(1))); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
	if _, err := NewInt(1).Div(NewInt(0)); err == nil {
		t.Error("1/0 did not error")
	}
	if _, err := NewFloat(1).Div(NewFloat(0)); err == nil {
		t.Error("1.0/0.0 did not error")
	}
	if _, err := NewString("a").Add(NewInt(1)); err == nil {
		t.Error("string+int did not error")
	}
}

func TestByteSize(t *testing.T) {
	if NewInt(1).ByteSize() != 8 {
		t.Error("int ByteSize != 8")
	}
	if NewString("abcd").ByteSize() != 20 {
		t.Error("string ByteSize != 16+len")
	}
	tp := Tuple{NewInt(1), NewString("ab")}
	if tp.ByteSize() != 16+8+18 {
		t.Errorf("tuple ByteSize = %d", tp.ByteSize())
	}
}

// TestEqualIsCompareZero: the kind-specialized Equal answers as
// Compare(o) == 0 for every pair — across kinds, INTEGER against FLOAT,
// NaN (equal to everything) and signed zeros — and Bits is the payload a
// number is built from.
func TestEqualIsCompareZero(t *testing.T) {
	vals := []Value{
		Null(), NewInt(0), NewInt(2), NewInt(-2), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2), NewFloat(math.NaN()), NewFloat(math.Inf(1)),
		NewString(""), NewString("a"), NewString("ab"), NewString(string([]byte{'a'})),
		NewDate(0), NewDate(2), NewDate(9000),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.Equal(b), a.Compare(b) == 0; got != want {
				t.Errorf("%s %v Equal %s %v = %v, Compare says %v", a.Kind(), a, b.Kind(), b, got, want)
			}
		}
	}
	if NewInt(-3).Bits() != uint64(1<<64-3) || NewFloat(1.5).Bits() != math.Float64bits(1.5) || NewDate(7).Bits() != 7 {
		t.Error("Bits is not the payload word")
	}
}

// TestCoerce: a value is stored in a column of another kind as SQL
// INSERT stores it — INTEGER into FLOAT and DATE, FLOAT into INTEGER
// truncated — or refused.
func TestCoerce(t *testing.T) {
	for _, c := range []struct {
		v    Value
		k    Kind
		want Value
	}{
		{NewInt(3), KindFloat, NewFloat(3)},
		{NewFloat(4.9), KindInt, NewInt(4)},
		{NewInt(9000), KindDate, NewDate(9000)},
		{Null(), KindDate, Null()},
		{NewString("x"), KindString, NewString("x")},
	} {
		got, err := Coerce(c.v, c.k)
		if err != nil || got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("Coerce(%v, %s) = %v, %v; want %v", c.v, c.k, got, err, c.want)
		}
	}
	for _, c := range []struct {
		v Value
		k Kind
	}{{NewString("1995-01-02"), KindDate}, {NewDate(1), KindInt}, {NewInt(1), KindString}, {NewFloat(1), KindDate}} {
		if got, err := Coerce(c.v, c.k); err == nil {
			t.Errorf("Coerce(%s %v, %s) = %v, want an error", c.v.Kind(), c.v, c.k, got)
		}
	}
}
