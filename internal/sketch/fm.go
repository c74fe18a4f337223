// Package sketch implements Flajolet–Martin probabilistic counting
// ("Probabilistic Counting Algorithms for Data Base Applications", JCSS
// 1985), the bitmap approach the paper cites ([6]) for estimating the
// number of unique values of an attribute in one streaming pass.
package sketch

import (
	"math"
	"math/bits"

	"repro/internal/types"
)

// fmPhi is the Flajolet–Martin correction constant: the expected position
// of the lowest unset bit is log2(phi * n).
const fmPhi = 0.77351

// DistinctCounter estimates the number of distinct values in a stream
// using PCSA (probabilistic counting with stochastic averaging): the hash
// space is split across m bitmaps and the estimates averaged, giving a
// standard error of about 0.78/sqrt(m).
type DistinctCounter struct {
	maps []uint64
}

// NewDistinctCounter returns a counter with m bitmaps; m must be a power
// of two (rounded up if not). m = 64 gives roughly 10% standard error in
// one 512-byte structure, matching the paper's "no I/O overhead" budget.
func NewDistinctCounter(m int) *DistinctCounter {
	if m < 1 {
		m = 1
	}
	// Round up to a power of two so hash bits split cleanly.
	p := 1
	for p < m {
		p <<= 1
	}
	return &DistinctCounter{maps: make([]uint64, p)}
}

// Add offers one value to the counter.
func (c *DistinctCounter) Add(v types.Value) {
	c.AddHash(v.Hash())
}

// AddHash offers a pre-computed 64-bit hash to the counter.
func (c *DistinctCounter) AddHash(h uint64) {
	i, b := c.bit(h)
	c.maps[i] |= b
}

// bit returns the bitmap a hash goes to and the bit it sets there: bit
// rho, the position of the least significant 1 bit of the remaining
// hash bits (0-based; an all-zero rest maps to the top position).
func (c *DistinctCounter) bit(h uint64) (int, uint64) {
	m := uint64(len(c.maps))
	return int(h & (m - 1)), 1 << uint(bits.TrailingZeros64(h/m|(1<<63)))
}

// Estimate returns the estimated number of distinct values added.
func (c *DistinctCounter) Estimate() float64 {
	m := float64(len(c.maps))
	sum := 0.0
	for _, bm := range c.maps {
		// R = index of the lowest zero bit.
		sum += float64(bits.TrailingZeros64(^bm))
	}
	mean := sum / m
	return m / fmPhi * math.Pow(2, mean)
}

// Clone returns an independent copy of the counter. The catalog clones
// sketches at commit so incremental stats maintenance can publish a new
// version without mutating state a concurrent reader may hold.
func (c *DistinctCounter) Clone() *DistinctCounter {
	return &DistinctCounter{maps: append([]uint64(nil), c.maps...)}
}

// Merge folds another counter's state into c. Both must have the same
// number of bitmaps. Merging supports combining per-partition counts.
func (c *DistinctCounter) Merge(o *DistinctCounter) {
	if len(c.maps) != len(o.maps) {
		panic("sketch: merging counters of different sizes")
	}
	for i := range c.maps {
		c.maps[i] |= o.maps[i]
	}
}

// HybridDistinct counts exactly until the set reaches a size threshold,
// then degrades to the FM sketch. PCSA is badly biased when the true
// cardinality is smaller than its bitmap count, so the collector uses
// this hybrid: small group counts (the interesting case for aggregate
// memory sizing) stay exact at bounded memory, large ones are sketched.
type HybridDistinct struct {
	threshold int
	exact     map[uint64]struct{}
	fm        *DistinctCounter
}

// NewHybridDistinct returns a hybrid counter that switches to an
// m-bitmap FM sketch once more than threshold distinct hashes are seen.
func NewHybridDistinct(threshold, m int) *HybridDistinct {
	if threshold < 1 {
		threshold = 1
	}
	return &HybridDistinct{
		threshold: threshold,
		exact:     make(map[uint64]struct{}),
		fm:        NewDistinctCounter(m),
	}
}

// Add offers one value.
func (h *HybridDistinct) Add(v types.Value) { h.AddHash(v.Hash()) }

// AddHash offers a pre-computed hash.
func (h *HybridDistinct) AddHash(hash uint64) {
	h.fm.AddHash(hash)
	if h.exact == nil {
		return
	}
	h.exact[hash] = struct{}{}
	if len(h.exact) > h.threshold {
		h.exact = nil // degrade to the sketch
	}
}

// Holds reports whether adding hash would leave the counter unchanged:
// its FM bit is set and, while the count is exact, the set has it.
func (h *HybridDistinct) Holds(hash uint64) bool {
	if _, ok := h.exact[hash]; !ok && h.exact != nil {
		return false
	}
	i, b := h.fm.bit(hash)
	return h.fm.maps[i]&b != 0
}

// Estimate returns the exact count while below the threshold, otherwise
// the FM estimate.
func (h *HybridDistinct) Estimate() float64 {
	if h.exact != nil {
		return float64(len(h.exact))
	}
	return h.fm.Estimate()
}

// Clone returns an independent copy of the hybrid counter, preserving
// its exact-or-sketched state and threshold.
func (h *HybridDistinct) Clone() *HybridDistinct {
	c := &HybridDistinct{threshold: h.threshold, fm: h.fm.Clone()}
	if h.exact != nil {
		c.exact = make(map[uint64]struct{}, len(h.exact))
		for k := range h.exact {
			c.exact[k] = struct{}{}
		}
	}
	return c
}

// Merge folds another hybrid counter into h, for combining per-partition
// collector states at a gather point. The FM sketches always merge (bitmap
// union is exact for FM); the exact sets union only while both sides are
// still exact and the union stays under h's threshold — otherwise the
// merged counter degrades to the sketch, the same transition Add makes.
func (h *HybridDistinct) Merge(o *HybridDistinct) {
	if o == nil {
		return
	}
	h.fm.Merge(o.fm)
	if h.exact == nil {
		return
	}
	if o.exact == nil {
		h.exact = nil
		return
	}
	for k := range o.exact {
		h.exact[k] = struct{}{}
	}
	if len(h.exact) > h.threshold {
		h.exact = nil
	}
}
