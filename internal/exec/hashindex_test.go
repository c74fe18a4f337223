package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// chain lists the entries the index finds for hash h, in chain order.
func chain(x *hashIndex, h uint64) []int {
	var out []int
	for e := x.first(h); e >= 0; e = x.after(e, h) {
		out = append(out, int(e))
	}
	return out
}

// hashStream turns quick's raw bytes into a stream of hashes with the
// shapes a table meets: few distinct values (duplicate keys, and the full
// collisions of distinct keys that share a hash — the index cannot tell
// the two apart, its caller compares keys), one hash holding half the
// entries, and hashes that differ only in bits the bucket choice may drop.
func hashStream(raw []byte, heavy bool) []uint64 {
	hs := make([]uint64, len(raw))
	for i, b := range raw {
		switch {
		case heavy && i%2 == 0:
			hs[i] = 42
		case b%3 == 0:
			hs[i] = uint64(b) << 56 // equal low bits
		default:
			hs[i] = uint64(b % 16)
		}
	}
	return hs
}

// checkAgainstMap compares x with the reference table of hs: every hash
// finds exactly its entries (in insertion order when ordered), a hash
// never added finds none.
func checkAgainstMap(x *hashIndex, hs []uint64, ordered bool) error {
	ref := map[uint64][]int{}
	for i, h := range hs {
		ref[h] = append(ref[h], i)
	}
	if x.len() != len(hs) {
		return fmt.Errorf("index holds %d entries, want %d", x.len(), len(hs))
	}
	for h, want := range ref {
		got := chain(x, h)
		if !ordered {
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("hash %#x finds entries %v, want %v", h, got, want)
		}
	}
	for _, h := range []uint64{7777, 1 << 63, math.MaxUint64} {
		if _, ok := ref[h]; !ok && chain(x, h) != nil {
			return fmt.Errorf("hash %#x, never added, finds %v", h, chain(x, h))
		}
	}
	return nil
}

// The index against a map[uint64][]int, both ways of filling it: sealed
// (a join's build: chains in insertion order) and incremental (an
// aggregation: probed while it grows), reset and refilled with another
// stream in between.
func TestHashIndexMatchesMapReference(t *testing.T) {
	var x hashIndex
	if chain(&x, 0) != nil || x.len() != 0 {
		t.Fatal("the zero index is not empty")
	}
	x.seal()
	if chain(&x, 0) != nil {
		t.Fatal("an index sealed empty finds an entry")
	}
	prop := func(a, b []byte, heavy bool) bool {
		for _, raw := range [][]byte{a, b, nil, a} {
			hs := hashStream(raw, heavy)
			x.reset()
			for _, h := range hs {
				x.add(h)
			}
			x.seal()
			if err := checkAgainstMap(&x, hs, true); err != nil {
				t.Errorf("sealed, %d entries: %v", len(hs), err)
				return false
			}
			x.reset()
			for i, h := range hs {
				if got := x.insert(h); got != i {
					t.Errorf("insert returned entry %d, want %d", got, i)
					return false
				}
				if i%37 == 0 { // findable at once, not only at the end
					if err := checkAgainstMap(&x, hs[:i+1], false); err != nil {
						t.Errorf("incremental, after %d of %d entries: %v", i+1, len(hs), err)
						return false
					}
				}
			}
			if err := checkAgainstMap(&x, hs, false); err != nil {
				t.Errorf("incremental, %d entries: %v", len(hs), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

// The bucket array follows the entry count, with no floor: a build side
// of five rows does not pay for sixteen buckets.
func TestHashIndexSizesBucketsToTheEntries(t *testing.T) {
	for _, c := range []struct{ entries, buckets int }{{1, 1}, {2, 2}, {5, 8}, {25, 32}, {1024, 1024}, {1025, 2048}} {
		var x hashIndex
		for i := 0; i < c.entries; i++ {
			x.add(uint64(i) * 0x9E3779B9)
		}
		x.seal()
		if len(x.buckets) != c.buckets {
			t.Errorf("%d entries sealed into %d buckets, want %d", c.entries, len(x.buckets), c.buckets)
		}
	}
}

// tupleSource is an operator over tuples already in memory, so a test
// counts what the operator above it allocates and nothing else.
type tupleSource struct {
	sch  *types.Schema
	rows []types.Tuple
	i    int
}

func (s *tupleSource) Schema() *types.Schema { return s.sch }
func (s *tupleSource) Open() error           { s.i = 0; return nil }
func (s *tupleSource) Close() error          { return nil }
func (s *tupleSource) Next() (types.Tuple, error) {
	if s.i == len(s.rows) {
		return nil, nil
	}
	s.i++
	return s.rows[s.i-1], nil
}

// kvRows returns n rows of (k, v, s): k = i, v = i % mod.
func kvRows(n int, mod int64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i) % mod), types.NewString("row")}
	}
	return rows
}

// A build of N tuples allocates for the doublings of four slices and one
// bucket array — O(log N) — whatever the number of distinct keys; and
// absorbing G groups likewise. A per-key or per-group allocation creeping
// back in fails here.
func TestHashTablesAllocateLogarithmically(t *testing.T) {
	e := newEnv(64)
	tbl := e.makeTable(t, "r", 1, 1)
	const n = 1 << 14
	bound := 8 * math.Log2(n)
	for _, mod := range []int64{n, 16} { // all keys distinct; 16 long chains
		rows := kvRows(n, mod)
		node := hashJoinNode(e, t, tbl, tbl, 0)
		allocs := testing.AllocsPerRun(3, func() {
			j := NewHashJoin(node, &tupleSource{sch: tbl.Schema, rows: rows}, &tupleSource{sch: tbl.Schema}, e.ctx)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if j.index.len() != n {
				t.Fatalf("built %d entries, want %d", j.index.len(), n)
			}
			j.Close()
		})
		if allocs > bound {
			t.Errorf("building %d tuples of %d keys allocated %.0f times, want at most %.0f", n, mod, allocs, bound)
		}
	}

	rows := kvRows(n, n)
	node := aggNode(t, e, "r", 0)
	allocs := testing.AllocsPerRun(3, func() {
		a := NewAgg(node, nil, e.ctx)
		a.compile()
		for _, r := range rows {
			if err := a.absorb(r); err != nil {
				t.Fatal(err)
			}
		}
		if a.index.len() != n {
			t.Fatalf("absorbed into %d groups, want %d", a.index.len(), n)
		}
	})
	// Six slices double here (three slabs, three of the index), and the
	// aggregate arguments' integer sums are boxed by nobody.
	if allocs > 2*bound {
		t.Errorf("absorbing %d groups allocated %.0f times, want at most %.0f", n, allocs, 2*bound)
	}
}

// render is the rows as strings, in the order given.
func render(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// A probe tuple's matches come out in the order their build tuples
// arrived — the order the map of slices gave — in memory and, within a
// partition, spilled; and both modes produce the nested-loop multiset.
func TestHashJoinEmitsMatchesInBuildOrder(t *testing.T) {
	e := newEnv(512)
	l := e.makeTable(t, "l", 1500, 40)
	r := e.makeTable(t, "r", 300, 40)
	lt := collectAll(t, mustBuild(t, e, scanNode(l)))
	rt := collectAll(t, mustBuild(t, e, scanNode(r)))
	want := nestedLoopJoin(lt, rt, []int{1}, []int{1})
	for _, grant := range []float64{0, 4096} {
		op := NewHashJoin(hashJoinNode(e, t, l, r, grant), mustBuild(t, e, scanNode(l)), mustBuild(t, e, scanNode(r)), e.ctx)
		got := collectAll(t, op)
		if op.Spilled() != (grant > 0) {
			t.Fatalf("grant %.0f: spilled = %v", grant, op.Spilled())
		}
		tuplesetEqual(t, got, want)
		// Output rows are build ++ probe: between two rows of one probe
		// tuple (same probe k, column 3) the build k (column 0) ascends,
		// for the build side was scanned in k order.
		for i := 1; i < len(got); i++ {
			if got[i][3].Int() == got[i-1][3].Int() && got[i][0].Int() <= got[i-1][0].Int() {
				t.Fatalf("grant %.0f: probe k=%d matched build k=%d after build k=%d",
					grant, got[i][3].Int(), got[i][0].Int(), got[i-1][0].Int())
			}
		}
	}
}

// Nothing about a hash table's output follows Go's map iteration any
// more: an un-ordered GROUP BY and a spilling join, run twice, emit the
// same rows in the same order and write partition files of the same
// sizes; groups come out in first-seen order.
func TestHashTablesAreDeterministic(t *testing.T) {
	e := newEnv(512)
	l := e.makeTable(t, "l", 3000, 50)
	r := e.makeTable(t, "r", 1000, 50)

	joinRun := func() (rows []string, pages []int) {
		j := NewHashJoin(hashJoinNode(e, t, l, r, 4096), mustBuild(t, e, scanNode(l)), mustBuild(t, e, scanNode(r)), e.ctx)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if !j.Spilled() {
			t.Fatal("the join did not spill")
		}
		for _, p := range j.buildParts {
			pages = append(pages, p.NumPages())
		}
		out, err := drainAll(j)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		return render(out), pages
	}
	rows1, pages1 := joinRun()
	rows2, pages2 := joinRun()
	if !slices.Equal(pages1, pages2) {
		t.Errorf("build partitions hold %v pages, then %v", pages1, pages2)
	}
	if !slices.Equal(rows1, rows2) {
		t.Error("a spilling join emitted its rows in two different orders")
	}

	for _, grant := range []float64{0, 2048} {
		aggRun := func() []string {
			a := NewAgg(aggNode(t, e, "l", grant), mustBuild(t, e, scanNode(l)), e.ctx)
			out := collectAll(t, a)
			if a.Spilled() != (grant > 0) {
				t.Fatalf("grant %.0f: spilled = %v", grant, a.Spilled())
			}
			return render(out)
		}
		first, second := aggRun(), aggRun()
		if !slices.Equal(first, second) {
			t.Errorf("grant %.0f: an un-ordered GROUP BY emitted its groups in two different orders", grant)
		}
		if grant == 0 {
			// v = k % 50 over k ascending: first seen in v order.
			for i, row := range collectAll(t, NewAgg(aggNode(t, e, "l", 0), mustBuild(t, e, scanNode(l)), e.ctx)) {
				if row[0].Int() != int64(i) {
					t.Fatalf("group %d of the output has v=%d, want first-seen order", i, row[0].Int())
				}
			}
		}
	}
}

// drainAll pulls every tuple of an opened operator.
func drainAll(op Operator) ([]types.Tuple, error) {
	var out []types.Tuple
	for {
		t, err := op.Next()
		if t == nil || err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
