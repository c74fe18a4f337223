package types

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// The layout the engine's memory figures rest on: three words, a zero
// value that is NULL, and an empty string that needs no pointer.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("a Value takes %d bytes, want 24", got)
	}
	if blockValues*int(unsafe.Sizeof(Value{})) > blockSize || blockValues < 600 {
		t.Errorf("blockValues = %d does not fill a %d-byte block", blockValues, blockSize)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || zero.String() != "NULL" {
		t.Errorf("the zero Value is %v (%s), want NULL", zero, zero.Kind())
	}
	if reflect.TypeOf(zero).Comparable() {
		t.Error("Value is comparable: == on one would compare string pointers")
	}
	empty := NewString("")
	if empty.p != nil || empty.Str() != "" || empty.IsNull() {
		t.Errorf("NewString(\"\") = %+v", empty)
	}
	out, _, err := DecodeTuple(EncodeTuple(nil, Tuple{empty, NewString("x")}))
	if err != nil || out[0].p != nil || out[0].Kind() != KindString || out[0].Str() != "" || out[1].Str() != "x" {
		t.Errorf("\"\" round-tripped to %+v (%v)", out, err)
	}
	// A non-string never carries a pointer, whatever built it.
	for _, v := range []Value{Null(), NewInt(-1), NewFloat(math.NaN()), NewDate(9000)} {
		if v.p != nil {
			t.Errorf("%s value %v carries a pointer", v.Kind(), v)
		}
	}
}

// Value.Hash picks spill partitions (HashJoin.writePart) and hash-routes
// exchange tuples, so its bits are part of what the simulated costs rest
// on. These were recorded from the hash/fnv implementation it replaced.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		v    Value
		want uint64
	}{
		{"NULL", Null(), 0x9e3779b97f4a7c15},
		{"0", NewInt(0), 0xa8c7f832281a39c5},
		{"2", NewInt(2), 0xa8c83832281aa685},
		{"2.0", NewFloat(2.0), 0xa8c83832281aa685},
		{"-7", NewInt(-7), 0xa869903227caa789},
		{"MinInt64", NewInt(math.MinInt64), 0xaae7753229e7c18c},
		{"MaxInt64 (no exact float image)", NewInt(math.MaxInt64), 0x8cf59a8bfca461bd},
		{"1<<53 + 1 (no exact float image)", NewInt(1<<53 + 1), 0x8a39f1291d8754c4},
		{"0.5", NewFloat(0.5), 0xaae7e93229e886a8},
		{"-0.0", NewFloat(math.Copysign(0, -1)), 0xa8c7783228196045},
		{"+Inf", NewFloat(math.Inf(1)), 0xaab1293229b9b0f8},
		{"NaN", NewFloat(math.NaN()), 0x8d1818291ff72671},
		{`""`, NewString(""), 0xcbf29ce484222325},
		{`"a"`, NewString("a"), 0xaf63dc4c8601ec8c},
		{`"BUILDING"`, NewString("BUILDING"), 0x9840bdc81c501475},
		{"4 KiB of xy", NewString(strings.Repeat("xy", 2048)), 0xb87b91d286c88325},
		{"date 0", NewDate(0), 0xa8c7f832281a39c5},
		{"date 9204", NewDate(9204), 0x1b7254341bce713e},
	} {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("Hash(%s) = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// agree reports how a decoded value differs from the constructor-built
// one it was encoded from, through every method whose result the engine
// charges, routes or prints by. Hash and String see the payload bits, so
// NaN and -0.0 — which Equal cannot tell from their neighbours — are held
// to the bit as well.
func agree(got, want Value) string {
	switch {
	case got.Kind() != want.Kind():
		return "Kind"
	case !got.Equal(want) || !want.Equal(got):
		return "Equal"
	case got.Compare(want) != 0 || want.Compare(got) != 0:
		return "Compare"
	case got.Hash() != want.Hash():
		return "Hash"
	case got.String() != want.String():
		return "String"
	case got.ByteSize() != want.ByteSize():
		return "ByteSize"
	case got.EncodedSize() != want.EncodedSize():
		return "EncodedSize"
	case got.Kind() == KindFloat && math.Float64bits(got.Float()) != math.Float64bits(want.Float()):
		return "Float bits"
	}
	return ""
}

// Encode, then decode through each of the three entry points — DecodeTuple,
// View through the record's Shape, Arena.Materialize — and the values agree
// with the ones the constructors built, for every kind and the edge
// payloads of each.
func TestDecodeAgreesWithConstructors(t *testing.T) {
	edges := []Value{
		Null(), NewInt(0), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(-1)), NewFloat(math.SmallestNonzeroFloat64),
		NewString(""), NewString("a"), NewString(strings.Repeat("k", ownBytes-1)), NewString(strings.Repeat("K", 3*ownBytes)),
		NewDate(0), NewDate(-1), NewDate(math.MaxInt32),
	}
	var arena Arena // shared across checks, as a scan's is across records
	check := func(in Tuple) bool {
		buf := EncodeTuple(nil, in)
		if len(buf) != EncodedSize(in) {
			t.Errorf("EncodedSize(%v) = %d, encoded %d bytes", in, EncodedSize(in), len(buf))
			return false
		}
		whole, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) {
			t.Errorf("DecodeTuple(%v): %d of %d bytes, %v", in, n, len(buf), err)
			return false
		}
		var shape Shape
		if err := shape.Fit(buf); err != nil || shape.Width() != len(in) {
			t.Errorf("Shape.Fit(%v): %d columns, %v", in, shape.Width(), err)
			return false
		}
		views := make(Tuple, len(in))
		for i := range views {
			if views[i], err = View(buf, &shape, i); err != nil {
				t.Errorf("View(%v, %d): %v", in, i, err)
				return false
			}
		}
		carved, err := arena.Materialize(buf, &shape, nil, 0)
		if err != nil {
			t.Errorf("Materialize(%v): %v", in, err)
			return false
		}
		for name, out := range map[string]Tuple{"DecodeTuple": whole, "View": views, "Materialize": carved} {
			if len(out) != len(in) || !out.Equal(in) || out.ByteSize() != in.ByteSize() || out.String() != in.String() {
				t.Errorf("%s(%v) = %v", name, in, out)
				return false
			}
			for i := range in {
				if what := agree(out[i], in[i]); what != "" {
					t.Errorf("%s: column %d: %s disagrees: decoded %v, built %v", name, i, what, out[i], in[i])
					return false
				}
			}
		}
		// The decodes copied, the views did not: scribbling over the
		// record changes nothing but them.
		for i := range buf {
			buf[i] = 0xEE
		}
		return carved.Equal(in) && whole.Equal(in)
	}
	if !check(edges) {
		t.Fatal("edge values do not round-trip")
	}
	for _, v := range edges {
		if !check(Tuple{v}) {
			t.Fatalf("%v does not round-trip alone", v)
		}
	}
	r := rand.New(rand.NewSource(18))
	f := func(i int64, fbits uint64, s string, days int32, big uint16) bool {
		in := Tuple{
			NewInt(i), NewFloat(math.Float64frombits(fbits)), NewString(s), NewDate(int64(days)), Null(),
			NewString(strings.Repeat("z", int(big)%(2*ownBytes))), edges[r.Intn(len(edges))],
		}
		r.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		return check(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Tuple.Equal is by length, kind and value.
func TestTupleEqual(t *testing.T) {
	a := Tuple{NewInt(2), NewString("ab"), Null()}
	for _, c := range []struct {
		o    Tuple
		want bool
	}{
		{Tuple{NewInt(2), NewString("a" + strings.Repeat("b", 1)), Null()}, true}, // another pointer, same string
		{a[:2], false},
		{Tuple{NewFloat(2), NewString("ab"), Null()}, false}, // Value.Equal would say yes
		{Tuple{NewInt(2), NewString("ab"), NewString("")}, false},
		{Tuple{NewInt(2), NewString("abc"), Null()}, false},
	} {
		if got := a.Equal(c.o); got != c.want || c.o.Equal(a) != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", a, c.o, got, c.want)
		}
	}
	if !(Tuple{}).Equal(nil) {
		t.Error("the empty tuple does not equal the nil one")
	}
}

// Tuples carved from an arena are NULL-filled, capped at their width (an
// append cannot run into the neighbour), distinct, and never written
// again by later carving — values or strings.
func TestArenaTuplesAreTheCallersToKeep(t *testing.T) {
	var a Arena
	row := func(i int) Tuple {
		return Tuple{NewInt(int64(i)), NewString(strings.Repeat("s", i%40)), NewString("tail")}
	}
	var kept []Tuple
	for i := 0; i < 5000; i++ {
		fresh := a.New(2, 0)
		if len(fresh) != 2 || cap(fresh) != 2 || !fresh[0].IsNull() || !fresh[1].IsNull() {
			t.Fatalf("New(2) = %v, cap %d", fresh, cap(fresh))
		}
		got, err := decode(&a, EncodeTuple(nil, row(i)), nil, 0)
		if err != nil || cap(got) != 3 {
			t.Fatalf("row %d: %v, cap %d, %v", i, got, cap(got), err)
		}
		joined := a.Concat(got, fresh)
		if len(joined) != 5 || cap(joined) != 5 || !joined[:3].Equal(got) {
			t.Fatalf("Concat = %v", joined)
		}
		fresh[0], fresh[1] = NewInt(int64(-i)), NewString("mine") // the caller's own tuple to fill
		kept = append(kept, got, fresh)
	}
	for i := 0; i < 5000; i++ {
		if got, fresh := kept[2*i], kept[2*i+1]; !got.Equal(row(i)) || !fresh.Equal(Tuple{NewInt(int64(-i)), NewString("mine")}) {
			t.Fatalf("row %d reads %v, %v after %d more were carved", i, got, fresh, 5000-i)
		}
	}
}

// Blocks: a bound from the caller sizes a block exactly, no bound grows
// them geometrically up to a full block, and a long string does not end
// the current string block.
func TestArenaBlockSizes(t *testing.T) {
	var a Arena
	a.New(4, 5)
	if len(a.vals) != 16 {
		t.Errorf("after 1 of at most 5 four-value tuples, %d values are left, want 16", len(a.vals))
	}
	for i := 0; i < 4; i++ {
		a.New(4, 4-i)
	}
	if len(a.vals) != 0 {
		t.Errorf("a block sized for 5 tuples has %d values left after 5", len(a.vals))
	}
	a.New(4, 1<<20)
	if len(a.vals) != blockValues-4 {
		t.Errorf("a large bound gave a block of %d values, want %d", len(a.vals)+4, blockValues)
	}

	a = Arena{}
	allocated := 0
	for i := 0; i < 4*blockValues; i++ {
		if len(a.vals) == 0 {
			allocated++
		}
		a.New(1, 0)
	}
	// 16, 32, … up to a full block, then full blocks.
	if want := 6 + 4; allocated < want-1 || allocated > want+1 {
		t.Errorf("%d one-value tuples without a bound took %d blocks, want about %d", 4*blockValues, allocated, want)
	}
	if w := a.New(3*blockValues, 0); len(w) != 3*blockValues {
		t.Errorf("a tuple wider than a block has %d values", len(w))
	}

	a = Arena{}
	short := a.str([]byte("abc"))
	left := len(a.bytes)
	if left != minBytes-3 {
		t.Errorf("first string block leaves %d bytes after 3, want %d", left, minBytes-3)
	}
	long := a.str(make([]byte, ownBytes))
	if len(a.bytes) != left {
		t.Errorf("a %d-byte string took the block: %d bytes left, were %d", ownBytes, len(a.bytes), left)
	}
	if short.Str() != "abc" || len(long.Str()) != ownBytes {
		t.Errorf("strings read %q, %d bytes", short.Str(), len(long.Str()))
	}
}

// Recycle carves the next tuples from the start of the block it is given,
// and replaces a block they outgrew by one twice as large, or as large as
// they needed; strings are not part of it.
func TestArenaRecycle(t *testing.T) {
	var a Arena
	if block := a.Recycle(nil, 0); block != nil {
		t.Fatalf("a first Recycle with nothing carved made a block of %d values", len(block))
	}
	a.New(3, 4)
	name := a.str([]byte("kept"))
	block := a.Recycle(nil, 3)
	if len(block) != 3 || &a.New(3, 4)[0] != &block[0] {
		t.Fatalf("after 3 values carved, Recycle made a block of %d and New did not carve from its start", len(block))
	}
	if again := a.Recycle(block, 3); &again[0] != &block[0] || &a.New(3, 1)[0] != &block[0] {
		t.Error("a block that held what was carved was not reused from its start")
	}
	if grown := a.Recycle(block, 4); len(grown) != 6 {
		t.Errorf("4 values carved from a block of 3: the new one holds %d, want twice 3", len(grown))
	}
	if grown := a.Recycle(block, 10); len(grown) != 10 {
		t.Errorf("10 values carved from a block of 3: the new one holds %d, want 10", len(grown))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Recycle(block, 3)
		a.New(3, 1)
	}); allocs != 0 {
		t.Errorf("recycling a block that fits allocated %.0f times", allocs)
	}
	if name.Str() != "kept" {
		t.Errorf("a string carved before a Recycle reads %q", name.Str())
	}
}

// Carving from a warm arena allocates per block, not per tuple or string.
func TestArenaAllocatesPerBlock(t *testing.T) {
	rec := EncodeTuple(nil, Tuple{NewInt(1), NewString("DELIVER IN PERSON"), NewDate(9000), NewString("TRUCK")})
	var a Arena
	const n = 10000
	var shape Shape
	if err := shape.Fit(rec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < n; i++ {
			if _, err := a.Materialize(rec, &shape, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 4 values and 22 string bytes a record: about 60 + 14 blocks.
	if allocs > 100 {
		t.Errorf("decoding %d records allocated %.0f times", n, allocs)
	}
}
