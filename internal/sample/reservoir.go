// Package sample implements reservoir sampling (Vitter, "Random Sampling
// with a Reservoir", TOMS 1985). The statistics-collector operator keeps
// one page worth of sampled attribute values in a reservoir while tuples
// stream past, then builds a histogram from the reservoir when the input
// is exhausted (paper §3.1).
package sample

import (
	"math"
	"math/rand"

	"repro/internal/types"
)

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of values, using Vitter's Algorithm R for the first passes and
// the skip-based Algorithm X once the reservoir is full.
//
// A reservoir allocates for what arrives: a stream the caller expects to
// be short starts with room for its expected length, and the random
// source is seeded on the first draw, which a stream that fits the
// reservoir never makes. Neither changes the seed or the order of the
// draws, so the sample is the one a reservoir that made both up front
// would hold.
type Reservoir struct {
	cap   int
	seed  int64
	seen  int64
	items []types.Value
	rng   *rand.Rand // nil until the first draw (see rand)
	skip  int64      // values to skip before the next replacement (Algorithm X)
}

// NewReservoir returns a reservoir holding at most capacity values, drawn
// with the given deterministic seed. expect is how many values the caller
// expects to offer. An expectation of at most an eighth of capacity gets
// room for that many, and a stream that outgrows it grows straight to
// capacity; any larger one gets capacity now. Estimates run low as often
// as not, so the bound matters: outgrowing costs at most an eighth of
// capacity more than allocating capacity up front.
func NewReservoir(capacity, expect int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	room := capacity
	if expect <= capacity/8 {
		room = max(0, expect)
	}
	return &Reservoir{
		cap:   capacity,
		seed:  seed,
		items: make([]types.Value, 0, room),
		skip:  -1,
	}
}

// rand returns the reservoir's random source, seeding it on first use.
func (r *Reservoir) rand() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	return r.rng
}

// Add offers one value from the stream to the reservoir.
func (r *Reservoir) Add(v types.Value) {
	r.seen++
	if len(r.items) < r.cap {
		if len(r.items) == cap(r.items) {
			// The stream outgrew its estimate: one step to capacity.
			grown := make([]types.Value, len(r.items), r.cap)
			copy(grown, r.items)
			r.items = grown
		}
		r.items = append(r.items, v)
		return
	}
	if r.skip < 0 {
		r.computeSkip()
	}
	if r.skip > 0 {
		r.skip--
		return
	}
	r.items[r.rand().Intn(r.cap)] = v
	r.computeSkip()
}

// computeSkip draws the gap until the next accepted element. This is
// Vitter's Algorithm X: skip lengths are drawn directly from the
// hypergeometric-like distribution instead of tossing a coin per element,
// keeping per-tuple overhead near zero on long streams.
func (r *Reservoir) computeSkip() {
	n := float64(r.cap)
	t := float64(r.seen)
	u := r.rand().Float64()
	// Probability the next j elements are all skipped is
	// prod_{i=1..j} (1 - n/(t+i)); invert by accumulation.
	prod := 1.0
	j := int64(0)
	for {
		prod *= 1 - n/(t+float64(j)+1)
		if prod <= u || math.IsNaN(prod) {
			break
		}
		j++
	}
	r.skip = j
}

// Merge folds another reservoir into r, producing a uniform sample over
// the union of both streams. A reservoir's items are a uniform
// without-replacement sample of its stream, so any uniformly chosen
// remaining item simulates drawing a fresh stream element: each merged
// slot picks a side with probability proportional to that side's
// remaining stream size and removes one uniformly random element from
// it — the hypergeometric draw of a k-sample from the concatenated
// streams. The draw within a side must be uniform, not positional: a
// reservoir that never overflowed holds its stream in arrival order, so
// consuming a prefix would bias the merged sample toward early
// arrivals. Merged Seen is the sum. r's deterministic rng drives the
// draws, so merging the same states in the same order is reproducible.
// The other reservoir is consumed and must not be used afterwards.
func (r *Reservoir) Merge(o *Reservoir) {
	if o == nil || o.seen == 0 {
		return
	}
	if r.seen == 0 {
		r.seen = o.seen
		r.items = o.items
		// Keep r's rng (and capacity) so determinism follows the
		// merging side. If the donor holds more items than fit, keep a
		// uniform subset via a partial Fisher-Yates shuffle — plain
		// truncation would keep a biased prefix when o never
		// overflowed.
		if len(r.items) > r.cap {
			for i := 0; i < r.cap; i++ {
				j := i + r.rand().Intn(len(r.items)-i)
				r.items[i], r.items[j] = r.items[j], r.items[i]
			}
			r.items = r.items[:r.cap]
		}
		r.skip = -1
		return
	}
	// Remaining stream elements each side has not yet contributed.
	wa, wb := float64(r.seen), float64(o.seen)
	a, b := r.items, o.items
	// take removes and returns a uniformly random element (swap-remove;
	// order within a side no longer matters once draws are uniform).
	take := func(side []types.Value) ([]types.Value, types.Value) {
		i := r.rand().Intn(len(side))
		v := side[i]
		side[i] = side[len(side)-1]
		return side[:len(side)-1], v
	}
	merged := make([]types.Value, 0, min(r.cap, len(a)+len(b)))
	for len(merged) < r.cap && (len(a) > 0 || len(b) > 0) {
		pickA := len(b) == 0
		if len(a) > 0 && len(b) > 0 {
			pickA = r.rand().Float64()*(wa+wb) < wa
		}
		var v types.Value
		if pickA {
			a, v = take(a)
			wa--
		} else {
			b, v = take(b)
			wb--
		}
		merged = append(merged, v)
	}
	r.items = merged
	r.seen += o.seen
	r.skip = -1
}

// Seen returns the number of values offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Sample returns the current reservoir contents. The slice is owned by
// the reservoir; callers must not mutate it.
func (r *Reservoir) Sample() []types.Value { return r.items }

// Cap returns the reservoir capacity.
func (r *Reservoir) Cap() int { return r.cap }
