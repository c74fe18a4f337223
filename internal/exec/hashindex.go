package exec

import (
	"math/bits"
	"slices"
)

// hashIndex is the hash table under the hash join and the aggregation:
// a chained index over entries the operator keeps in slices of its own
// (build tuples, group slabs), which it addresses by entry number. The
// index holds three flat slices — each entry's full key hash, each
// entry's link to the next entry in its chain, and a power-of-two array
// of chain heads — so a table of N entries is a handful of allocations
// however many distinct keys it holds, and a lookup compares a stored
// hash before the operator compares keys.
//
// Two ways to fill it. A hash join adds every build tuple and seals the
// index once, when the build side is drained: the bucket array is sized
// to the final entry count and never rehashed, and equal-hash entries
// chain in insertion order. An aggregation, which probes while it
// builds, inserts: the entry is linked at once and the bucket array
// doubles (one relink of every entry) when entries outnumber buckets.
//
// Entry numbers and links are int32: a table is bounded by its memory
// grant long before it holds 2³¹ entries.
type hashIndex struct {
	hashes  []uint64
	next    []int32 // -1 ends a chain
	buckets []int32 // chain heads, -1 = empty; len 0 until the first seal
	shift   uint    // a hash's bucket is its Fibonacci product >> shift
}

// len returns the number of entries.
func (x *hashIndex) len() int { return len(x.hashes) }

// reset empties the index, keeping its slices for the next fill.
func (x *hashIndex) reset() {
	x.hashes, x.next, x.buckets = x.hashes[:0], x.next[:0], x.buckets[:0]
}

// bucket maps a hash to its chain head's slot. Multiplying by 2⁶⁴/φ and
// keeping the top bits mixes every bit of the hash into the choice: the
// low bits alone are constant inside an exchange worker (tuples are
// routed by hash mod degree) and the high bits inside a spill partition.
func (x *hashIndex) bucket(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> x.shift
}

// add appends an entry with hash h and returns its number. The entry is
// found by lookups only after the next seal.
func (x *hashIndex) add(h uint64) int {
	x.hashes = append(room(x.hashes, 1), h)
	x.next = append(room(x.next, 1), -1)
	return len(x.hashes) - 1
}

// room returns s with capacity for n more elements, doubling the
// capacity when it has to grow. The tables' slices reach tens of
// thousands of elements, where append alone would grow them a quarter at
// a time and allocate, over a fill, five times what the table ends up
// holding; doubling allocates twice.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// extend returns s longer by n zero elements, with room's growth.
func extend[T any](s []T, n int) []T {
	s = room(s, n)
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// seal sizes the bucket array to the entry count — no floor, a build
// side of five rows gets eight buckets — and links every entry. Entries
// are walked back to front and pushed at their chain's head, so each
// chain lists its entries in insertion order.
func (x *hashIndex) seal() {
	n := len(x.hashes)
	if n == 0 {
		x.buckets = x.buckets[:0]
		return
	}
	lg := bits.Len(uint(n - 1)) // smallest power of two ≥ n
	size := 1 << lg
	if cap(x.buckets) >= size {
		x.buckets = x.buckets[:size]
	} else {
		x.buckets = make([]int32, size)
	}
	for i := range x.buckets {
		x.buckets[i] = -1
	}
	x.shift = uint(64 - lg) // lg 0: every product shifts to bucket 0
	for e := n - 1; e >= 0; e-- {
		b := x.bucket(x.hashes[e])
		x.next[e] = x.buckets[b]
		x.buckets[b] = int32(e)
	}
}

// insert is add for a table that is probed while it grows: the entry is
// findable on return.
func (x *hashIndex) insert(h uint64) int {
	e := x.add(h)
	if len(x.hashes) > len(x.buckets) {
		x.seal()
		return e
	}
	b := x.bucket(h)
	x.next[e] = x.buckets[b]
	x.buckets[b] = int32(e)
	return e
}

// first returns the first entry in h's chain whose hash is h, or -1.
// Equal hashes do not prove equal keys: the caller compares those.
func (x *hashIndex) first(h uint64) int32 {
	if len(x.buckets) == 0 {
		return -1
	}
	return x.skip(x.buckets[x.bucket(h)], h)
}

// after returns the entry following e in its chain whose hash is h, or
// -1.
func (x *hashIndex) after(e int32, h uint64) int32 {
	return x.skip(x.next[e], h)
}

func (x *hashIndex) skip(e int32, h uint64) int32 {
	for e >= 0 && x.hashes[e] != h {
		e = x.next[e]
	}
	return e
}
