package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// decode is what a scan without a filter does to a record: fit the
// shape, then materialise the wanted columns.
func decode(a *Arena, b []byte, cols []int, left int) (Tuple, error) {
	var s Shape
	if err := s.Fit(b); err != nil {
		return nil, err
	}
	return a.Materialize(b, &s, cols, left)
}

// A Shape reads each column where the format puts it, and a read finds
// damage to the bytes that column is read from — the header, its slot,
// the end of the string before it, its own string — and no other: a
// record cut short anywhere fails exactly for the columns whose bytes the
// cut removed.
func TestDecodeColumnsPartial(t *testing.T) {
	in := Tuple{NewInt(-1), NewFloat(math.Pi), NewString("hello"), Null(), NewDate(9500), NewString(""), NewString("tail")}
	buf := EncodeTuple(nil, in)
	// needs[k] is one past the last byte column k is read from, as the
	// format lays it out: the kind bytes, then the slots, then the strings.
	head := TupleHeaderSize + len(in)
	fixed := head
	for _, v := range in {
		fixed += v.EncodedSize() - 1
		if v.Kind() == KindString {
			fixed -= len(v.Str())
		}
	}
	needs, slots := make([]int, len(in)), make([]int, len(in))
	slot, str := head, fixed
	for k, v := range in {
		slots[k] = slot
		switch v.Kind() {
		case KindNull:
			needs[k] = head
		case KindString:
			slot += 4
			str += len(v.Str())
			needs[k] = max(slot, str)
		default:
			slot += 8
			needs[k] = slot
		}
	}
	if str != len(buf) {
		t.Fatalf("the layout ends at byte %d of %d", str, len(buf))
	}
	var s Shape // one for every record, as a reader keeps it
	if err := s.Fit(buf); err != nil || s.Width() != len(in) {
		t.Fatalf("Fit: %d columns, %v", s.Width(), err)
	}
	for k := range in {
		if got, err := View(buf, &s, k); err != nil || !same(got, in[k]) {
			t.Errorf("column %d = %v (%v), want %v", k, got, err, in[k])
		}
	}
	if s.end(buf) != len(buf) {
		t.Errorf("the record ends at byte %d of %d", s.end(buf), len(buf))
	}
	for cut := 0; cut < len(buf); cut++ {
		b := buf[:cut]
		if err := s.Fit(b); (err != nil) != (cut < head) {
			t.Fatalf("cut at %d of %d: Fit says %v", cut, len(buf), err)
		} else if err != nil {
			continue
		}
		for k := range in {
			got, err := View(b, &s, k)
			if (err != nil) != (cut < needs[k]) || err == nil && !same(got, in[k]) {
				t.Errorf("cut at %d: column %d (bytes to %d) = %v, %v", cut, k, needs[k], got, err)
			}
		}
	}
	// A string starts where the one before it ends: an end offset past
	// the record, or back inside the slots, fails its own string and the
	// next, and no other column.
	bad := slices.Clone(buf)
	for _, end := range []int{len(bad) + 1, head} {
		binary.LittleEndian.PutUint32(bad[slots[2]:], uint32(end))
		if err := s.Fit(bad); err != nil {
			t.Fatal(err)
		}
		for k := range in {
			if _, err := View(bad, &s, k); (err != nil) != (k == 2 || k == 5) {
				t.Errorf("column 2 ends at byte %d of %d: column %d reads %v", end, len(bad), k, err)
			}
		}
	}
	bad[TupleHeaderSize+3] = 0xEE
	if err := s.Fit(bad); err == nil {
		t.Error("a kind byte nothing knows fitted a shape")
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
	// Damage to bytes no wanted column is read from is not found.
	cut := buf[:len(buf)-3]
	if _, err := decode(&a, cut, []int{0, 4}, 1); err != nil {
		t.Errorf("truncated tail reported while projecting columns before it: %v", err)
	}
	if _, err := decode(&a, cut, []int{5}, 1); err == nil {
		t.Error("truncated wanted column decoded")
	}
}

// sizedTuple is a random tuple for testing/quick: every kind, NULLs,
// empty strings and strings long enough to fill most of a page.
type sizedTuple Tuple

func (sizedTuple) Generate(r *rand.Rand, size int) reflect.Value {
	t := make(sizedTuple, r.Intn(size+1))
	for i := range t {
		switch r.Intn(7) {
		case 0:
			t[i] = Null()
		case 1:
			t[i] = NewInt(r.Int63() - r.Int63())
		case 2:
			t[i] = NewFloat(r.NormFloat64())
		case 3:
			t[i] = NewDate(int64(r.Int31()))
		case 4:
			t[i] = NewString("")
		case 5:
			t[i] = NewString(strings.Repeat("x", r.Intn(20)))
		default:
			t[i] = NewString(strings.Repeat("y", r.Intn(6000)))
		}
	}
	return reflect.ValueOf(t)
}

// A tuple encodes to EncodedSize bytes, which is the count plus, per
// column, a kind byte and its payload: page counts, charged sizes and
// width statistics are those of a kind-then-payload layout.
func TestEncodedSizeAddsUp(t *testing.T) {
	f := func(st sizedTuple) bool {
		in := Tuple(st)
		want := TupleHeaderSize
		for _, v := range in {
			switch want++; v.Kind() {
			case KindNull:
			case KindString:
				want += 4 + len(v.Str())
			default:
				want += 8
			}
		}
		return len(EncodeTuple(nil, in)) == want && EncodedSize(in) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// One Shape refitted record by record — narrow and wide, NULLs moving
// from column to column, as a reader meets them — reads every record back
// as it was encoded.
func TestShapeRefitsRecordByRecord(t *testing.T) {
	var (
		s Shape
		a Arena
	)
	f := func(tuples []sizedTuple) bool {
		for _, st := range tuples {
			in := Tuple(st)
			rec := EncodeTuple(nil, in)
			if err := s.Fit(rec); err != nil || s.Width() != len(in) {
				t.Errorf("Fit(%v): %d columns, %v", in, s.Width(), err)
				return false
			}
			out, err := a.Materialize(rec, &s, nil, 0)
			if err != nil || !out.Equal(in) || s.end(rec) != len(rec) {
				t.Errorf("%v read back as %v (%v), ending at %d of %d", in, out, err, s.end(rec), len(rec))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Whatever the bytes, a decode fails or yields a tuple that encodes back
// to exactly the bytes it consumed, and a Shape fitted to them views the
// same values; nothing panics. The seeds are TestDecodeTruncated's cuts
// and TestDecodeUnknownKind's record.
func FuzzRecord(f *testing.F) {
	full := EncodeTuple(nil, Tuple{NewInt(7), NewString("abcdef")})
	for cut := 0; cut <= len(full); cut++ {
		f.Add(full[:cut])
	}
	f.Add([]byte{1, 0, 0xEE})
	f.Add(EncodeTuple(nil, Tuple{NewInt(-1), NewFloat(math.Pi), NewString(""), NewString("hello"), Null(), NewDate(9500)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		tup, n, err := DecodeTuple(b)
		if err != nil {
			return
		}
		if re := EncodeTuple(nil, tup); n > len(b) || !bytes.Equal(re, b[:n]) {
			t.Fatalf("%x decoded to %v, %d bytes, which encodes to %x", b, tup, n, re)
		}
		var s Shape
		if err := s.Fit(b); err != nil || s.Width() != len(tup) {
			t.Fatalf("%x decoded, but Fit says %d columns, %v", b, s.Width(), err)
		}
		for k := range tup {
			if v, err := View(b, &s, k); err != nil || !same(v, tup[k]) {
				t.Fatalf("%x: column %d views as %v (%v), decodes as %v", b, k, v, err, tup[k])
			}
		}
	})
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
