package types

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// same is Tuple.Equal for one value: the same kind, and Equal.
func same(a, b Value) bool { return Tuple{a}.Equal(Tuple{b}) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{NewInt(0)},
		{NewInt(-1), NewFloat(math.Pi), NewString(""), NewString("hello"), Null(), NewDate(9500)},
		{NewString(string(make([]byte, 1000)))},
	}
	for _, in := range tuples {
		buf := EncodeTuple(nil, in)
		if len(buf) != EncodedSize(in) {
			t.Errorf("EncodedSize(%v) = %d, encoded %d bytes", in, EncodedSize(in), len(buf))
		}
		out, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatalf("DecodeTuple(%v): %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeTuple consumed %d of %d bytes", n, len(buf))
		}
		if len(out) != len(in) {
			t.Fatalf("round trip %v -> %v", in, out)
		}
		for i := range in {
			if in[i].Kind() != out[i].Kind() || !in[i].Equal(out[i]) {
				t.Errorf("column %d: %v -> %v", i, in[i], out[i])
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := EncodeTuple(nil, Tuple{NewInt(7), NewString("abcdef")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeTuple(full[:cut]); err == nil {
			t.Errorf("DecodeTuple of %d/%d bytes did not error", cut, len(full))
		}
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	buf := []byte{1, 0, 0xEE}
	if _, _, err := DecodeTuple(buf); err == nil {
		t.Error("unknown kind byte did not error")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(i int64, fv float64, s string, days int32) bool {
		if math.IsNaN(fv) {
			fv = 0 // NaN breaks Equal; executor never stores NaN
		}
		in := Tuple{NewInt(i), NewFloat(fv), NewString(s), NewDate(int64(days)), Null()}
		buf := EncodeTuple(nil, in)
		out, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return in.Equal(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeAppendsToExisting(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf := EncodeTuple(prefix, Tuple{NewInt(1)})
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Error("EncodeTuple clobbered the prefix")
	}
	out, _, err := DecodeTuple(buf[2:])
	if err != nil || !out[0].Equal(NewInt(1)) {
		t.Errorf("decode after prefix: %v, %v", out, err)
	}
}

// decode is what a scan without a filter does to a record: locate the
// columns up to the last one wanted, then materialise the wanted ones.
func decode(a *Arena, b []byte, cols []int, left int) (Tuple, error) {
	upto := math.MaxInt
	if cols != nil {
		upto = 0
		for _, c := range cols {
			upto = max(upto, c+1)
		}
	}
	offs, err := LocateColumns(b, nil, upto)
	if err != nil {
		return nil, err
	}
	return a.Materialize(b, offs, cols, left)
}

// LocateColumns finds exactly the columns below upto (or all the record
// has), each where View reads the value encoded there, stops walking
// after the last one asked for, and resumes from what it returned.
func TestDecodeColumnsPartial(t *testing.T) {
	in := Tuple{NewInt(-1), NewFloat(math.Pi), NewString("hello"), Null(), NewDate(9500), NewString("tail")}
	buf := EncodeTuple(nil, in)
	for upto := 0; upto <= len(in)+3; upto++ {
		offs, err := LocateColumns(buf, nil, upto)
		if want := min(upto, len(in)); err != nil || len(offs)-1 != want {
			t.Fatalf("upto %d: located %d columns, %v", upto, len(offs)-1, err)
		}
		for i := 0; i < len(offs)-1; i++ {
			if got := View(buf, offs[i]); !same(got, in[i]) {
				t.Errorf("upto %d: column %d = %v, want %v", upto, i, got, in[i])
			}
		}
		for first := 0; first <= upto; first++ {
			part, err := LocateColumns(buf, nil, first)
			if err == nil {
				part, err = LocateColumns(buf, part, upto)
			}
			if err != nil || !slices.Equal(part, offs) {
				t.Errorf("upto %d resumed from %d: %v (%v), want %v", upto, first, part, err, offs)
			}
		}
	}
	if offs, _ := LocateColumns(buf, nil, math.MaxInt); offs[len(offs)-1] != len(buf) {
		t.Errorf("the walk of a whole record ends at byte %d of %d", offs[len(offs)-1], len(buf))
	}
	// Damage past the last wanted column is not this call's to find;
	// damage before it is.
	cut := buf[:len(buf)-3]
	if _, err := LocateColumns(cut, nil, 5); err != nil {
		t.Errorf("truncated tail reported while locating columns before it: %v", err)
	}
	if offs, err := LocateColumns(cut, nil, 6); err == nil || len(offs)-1 != 5 {
		t.Errorf("truncated wanted column located: %v, %v", offs, err)
	}
	if _, err := LocateColumns(cut, nil, math.MaxInt); err == nil {
		t.Error("truncated tuple located in full")
	}
}

// Materialize returns a dense tuple — column cols[k] at position k —
// whose values are the ones encoded, is the whole tuple when cols is nil,
// and refuses a record narrower than the projection.
func TestDecodeProjected(t *testing.T) {
	in := Tuple{NewInt(-1), NewFloat(math.Pi), NewString("hello"), Null(), NewDate(9500), NewString("tail")}
	buf := EncodeTuple(nil, in)
	var a Arena
	for _, cols := range [][]int{{}, {0}, {2}, {3}, {5}, {1, 4}, {2, 3, 5}, {0, 1, 2, 3, 4, 5}} {
		got, err := decode(&a, buf, cols, 1)
		if err != nil || len(got) != len(cols) {
			t.Fatalf("cols %v: %v, %v", cols, got, err)
		}
		for k, c := range cols {
			if !same(got[k], in[c]) {
				t.Errorf("cols %v: position %d = %v, want column %d = %v", cols, k, got[k], c, in[c])
			}
		}
	}
	if all, err := decode(&a, buf, nil, 1); err != nil || !all.Equal(in) {
		t.Errorf("nil projection decoded %v (%v), want %v", all, err, in)
	}
	if _, err := decode(&a, buf, []int{2, 9}, 1); err == nil {
		t.Error("projection of a column the record does not have decoded")
	}
	if _, err := decode(&a, buf[:1], nil, 1); err == nil {
		t.Error("a record without a header decoded")
	}
	// The walk stops after the last wanted column.
	cut := buf[:len(buf)-3]
	if _, err := decode(&a, cut, []int{0, 4}, 1); err != nil {
		t.Errorf("truncated tail reported while projecting columns before it: %v", err)
	}
	if _, err := decode(&a, cut, []int{5}, 1); err == nil {
		t.Error("truncated wanted column decoded")
	}
}

// A tuple's encoded size is the header plus its values' encoded sizes.
func TestEncodedSizeAddsUp(t *testing.T) {
	in := Tuple{NewInt(7), NewString("abc"), Null(), NewFloat(1.5), NewDate(3)}
	sum := TupleHeaderSize
	for _, v := range in {
		sum += v.EncodedSize()
	}
	if got := len(EncodeTuple(nil, in)); got != sum || EncodedSize(in) != sum {
		t.Errorf("encoded %d bytes, EncodedSize %d, header + values %d", got, EncodedSize(in), sum)
	}
}

// An encode into a slice with room is done in place.
func TestEncodeFillsSpareCapacity(t *testing.T) {
	in := Tuple{NewInt(7), NewString("abc"), Null()}
	backing := make([]byte, 4+EncodedSize(in))
	out := EncodeTuple(backing[:4], in)
	if &out[0] != &backing[0] || len(out) != len(backing) {
		t.Fatal("EncodeTuple reallocated a destination with exactly enough room")
	}
	if raceEnabled {
		return // the allocation counts below are not the encoder's alone
	}
	if allocs := testing.AllocsPerRun(10, func() { EncodeTuple(backing[:4], in) }); allocs != 0 {
		t.Errorf("in-place encode allocated %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { EncodeTuple(nil, in) }); allocs != 1 {
		t.Errorf("encode into nil allocated %.0f times, want one presized buffer", allocs)
	}
}

var sinkTuple Tuple

// BenchmarkDecodeTuple decodes a 16-column row with five strings, the
// shape of TPC-D lineitem.
func BenchmarkDecodeTuple(b *testing.B) {
	row := Tuple{
		NewInt(1), NewInt(2), NewInt(3), NewInt(4),
		NewFloat(17), NewFloat(21168.23), NewFloat(0.04), NewFloat(0.02),
		NewString("N"), NewString("O"),
		NewDate(9500), NewDate(9530), NewDate(9510),
		NewString("DELIVER IN PERSON"), NewString("TRUCK"), NewString("carefully final deposits"),
	}
	enc := EncodeTuple(nil, row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _, err := DecodeTuple(enc)
		if err != nil {
			b.Fatal(err)
		}
		sinkTuple = t
	}
}
