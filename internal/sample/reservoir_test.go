package sample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/types"
)

func TestReservoirUnderfill(t *testing.T) {
	r := NewReservoir(100, 100, 1)
	for i := 0; i < 50; i++ {
		r.Add(types.NewInt(int64(i)))
	}
	if len(r.Sample()) != 50 {
		t.Errorf("sample size = %d, want 50", len(r.Sample()))
	}
	if r.Seen() != 50 {
		t.Errorf("Seen = %d", r.Seen())
	}
	// Underfilled reservoir keeps every element in order.
	for i, v := range r.Sample() {
		if v.Int() != int64(i) {
			t.Fatalf("sample[%d] = %v", i, v)
		}
	}
}

func TestReservoirExactCapacity(t *testing.T) {
	r := NewReservoir(64, 64, 1)
	for i := 0; i < 100000; i++ {
		r.Add(types.NewInt(int64(i)))
	}
	if len(r.Sample()) != 64 {
		t.Errorf("sample size = %d, want 64", len(r.Sample()))
	}
	if r.Seen() != 100000 {
		t.Errorf("Seen = %d", r.Seen())
	}
}

func TestReservoirElementsFromInput(t *testing.T) {
	f := func(seed int64, extra uint16) bool {
		n := int(extra)%5000 + 10
		r := NewReservoir(32, 32, seed)
		for i := 0; i < n; i++ {
			r.Add(types.NewInt(int64(i * 3)))
		}
		for _, v := range r.Sample() {
			x := v.Int()
			if x%3 != 0 || x < 0 || x >= int64(n*3) {
				return false
			}
		}
		want := 32
		if n < 32 {
			want = n
		}
		return len(r.Sample()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of n=1000 elements should land in a k=100 reservoir with
	// probability k/n. Over many trials the mean sampled value should
	// be close to the stream mean.
	const n, k, trials = 1000, 100, 60
	var sum, count float64
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, k, int64(trial))
		for i := 0; i < n; i++ {
			r.Add(types.NewInt(int64(i)))
		}
		for _, v := range r.Sample() {
			sum += float64(v.Int())
			count++
		}
	}
	mean := sum / count
	want := float64(n-1) / 2
	if math.Abs(mean-want) > want*0.05 {
		t.Errorf("sampled mean %.1f deviates from stream mean %.1f", mean, want)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	run := func() []types.Value {
		r := NewReservoir(16, 16, 99)
		for i := 0; i < 10000; i++ {
			r.Add(types.NewInt(int64(i)))
		}
		return append([]types.Value(nil), r.Sample()...)
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestReservoirMinCapacity(t *testing.T) {
	r := NewReservoir(0, 0, 1)
	if r.Cap() != 1 {
		t.Errorf("Cap() = %d, want clamped to 1", r.Cap())
	}
	r.Add(types.NewInt(5))
	if len(r.Sample()) != 1 {
		t.Error("reservoir of capacity 1 is empty after Add")
	}
}

// eagerReservoir is the reference the lazy Reservoir is held to: the same
// algorithm with its whole capacity allocated and its source seeded up
// front.
type eagerReservoir struct {
	cap   int
	seen  int64
	items []types.Value
	rng   *rand.Rand
	skip  int64
}

func newEager(capacity int, seed int64) *eagerReservoir {
	return &eagerReservoir{cap: capacity, items: make([]types.Value, 0, capacity),
		rng: rand.New(rand.NewSource(seed)), skip: -1}
}

func (r *eagerReservoir) add(v types.Value) {
	r.seen++
	if len(r.items) < r.cap {
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
	r.items[r.rng.Intn(r.cap)] = v
	r.computeSkip()
}

func (r *eagerReservoir) computeSkip() {
	n, t, u := float64(r.cap), float64(r.seen), r.rng.Float64()
	prod, j := 1.0, int64(0)
	for {
		prod *= 1 - n/(t+float64(j)+1)
		if prod <= u || math.IsNaN(prod) {
			break
		}
		j++
	}
	r.skip = j
}

func (r *eagerReservoir) merge(o *eagerReservoir) {
	if o.seen == 0 {
		return
	}
	if r.seen == 0 {
		r.seen, r.items = o.seen, o.items
		if len(r.items) > r.cap {
			for i := 0; i < r.cap; i++ {
				j := i + r.rng.Intn(len(r.items)-i)
				r.items[i], r.items[j] = r.items[j], r.items[i]
			}
			r.items = r.items[:r.cap]
		}
		r.skip = -1
		return
	}
	wa, wb := float64(r.seen), float64(o.seen)
	a, b := r.items, o.items
	take := func(side []types.Value) ([]types.Value, types.Value) {
		i := r.rng.Intn(len(side))
		v := side[i]
		side[i] = side[len(side)-1]
		return side[:len(side)-1], v
	}
	merged := make([]types.Value, 0, r.cap)
	for len(merged) < r.cap && (len(a) > 0 || len(b) > 0) {
		pickA := len(b) == 0
		if len(a) > 0 && len(b) > 0 {
			pickA = r.rng.Float64()*(wa+wb) < wa
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
	r.items, r.seen, r.skip = merged, r.seen+o.seen, -1
}

func sameSample(t *testing.T, label string, got, want []types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sampled values, eager reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: sample[%d] = %v, eager reference %v", label, i, got[i], want[i])
		}
	}
}

// TestLazyReservoirMatchesEager: sizing the items from the expected
// stream length and seeding the source on the first draw change no
// sample, for streams around the capacity and far past it, under any
// expectation, and through Merge in both directions.
func TestLazyReservoirMatchesEager(t *testing.T) {
	const capacity = 16
	lengths := []int{0, 1, capacity - 1, capacity, capacity + 1, 10 * capacity}
	fill := func(n, base int, lazy *Reservoir, eager *eagerReservoir) {
		for i := 0; i < n; i++ {
			v := types.NewInt(int64(base + i))
			lazy.Add(v)
			eager.add(v)
		}
	}
	for _, n := range lengths {
		for _, expect := range []int{0, 1, n / 2, n, 4 * capacity} {
			lazy, eager := NewReservoir(capacity, expect, 7), newEager(capacity, 7)
			fill(n, 0, lazy, eager)
			sameSample(t, fmt.Sprintf("n=%d expect=%d", n, expect), lazy.Sample(), eager.items)
		}
		for _, m := range lengths {
			for _, dir := range []string{"a<-b", "b<-a"} {
				la, lb := NewReservoir(capacity, n/2, 11), NewReservoir(capacity, 0, 12)
				ea, eb := newEager(capacity, 11), newEager(capacity, 12)
				fill(n, 0, la, ea)
				fill(m, 1000, lb, eb)
				if dir == "a<-b" {
					la.Merge(lb)
					ea.merge(eb)
					sameSample(t, fmt.Sprintf("n=%d m=%d %s", n, m, dir), la.Sample(), ea.items)
				} else {
					lb.Merge(la)
					eb.merge(ea)
					sameSample(t, fmt.Sprintf("n=%d m=%d %s", n, m, dir), lb.Sample(), eb.items)
				}
			}
		}
	}
}

var sinkReservoir *Reservoir

// TestOutgrowingAnExpectationIsBounded: whatever the expectation, a
// stream that outgrows it allocates at most an eighth of capacity more
// values than a reservoir that expected the whole stream.
func TestOutgrowingAnExpectationIsBounded(t *testing.T) {
	const capacity, n, runs = 1024, 4 * 1024, 20
	bytesFor := func(expect int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			r := NewReservoir(capacity, expect, 5)
			for v := 0; v < n; v++ {
				r.Add(types.NewInt(int64(v)))
			}
			sinkReservoir = r
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	upFront := bytesFor(n)
	slack := float64(capacity/8) * float64(unsafe.Sizeof(types.Value{}))
	for _, expect := range []int{0, 1, capacity / 8, capacity/8 + 1, capacity / 2, capacity - 1} {
		// 512 bytes absorb the runtime's own allocations during a run.
		if got := bytesFor(expect); got > upFront+slack+512 {
			t.Errorf("expecting %d of %d values allocated %.0f bytes; up front %.0f, bound %.0f",
				expect, n, got, upFront, upFront+slack)
		}
	}
}
