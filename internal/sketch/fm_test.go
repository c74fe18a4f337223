package sketch

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/types"
)

func TestDistinctCounterAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 50000} {
		c := NewDistinctCounter(64)
		for i := 0; i < n; i++ {
			// Add each value several times; duplicates must not
			// inflate the estimate.
			v := types.NewString(fmt.Sprintf("key-%d", i))
			c.Add(v)
			c.Add(v)
			c.Add(v)
		}
		est := c.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.35 {
			t.Errorf("n=%d: estimate %.0f, relative error %.2f", n, est, relErr)
		}
	}
}

func TestDistinctCounterMerge(t *testing.T) {
	a := NewDistinctCounter(64)
	b := NewDistinctCounter(64)
	for i := 0; i < 5000; i++ {
		a.Add(types.NewInt(int64(i)))
	}
	for i := 2500; i < 7500; i++ {
		b.Add(types.NewInt(int64(i)))
	}
	a.Merge(b)
	est := a.Estimate()
	if math.Abs(est-7500)/7500 > 0.35 {
		t.Errorf("merged estimate %.0f, want ~7500", est)
	}
}

func TestDistinctCounterMergeSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Merge did not panic")
		}
	}()
	NewDistinctCounter(64).Merge(NewDistinctCounter(32))
}

func TestDistinctCounterRoundsUpToPowerOfTwo(t *testing.T) {
	c := NewDistinctCounter(33)
	if len(c.maps) != 64 {
		t.Errorf("maps = %d, want 64", len(c.maps))
	}
	c = NewDistinctCounter(0)
	if len(c.maps) != 1 {
		t.Errorf("maps = %d, want 1", len(c.maps))
	}
}

func TestHybridDistinctCountsExactly(t *testing.T) {
	e := NewHybridDistinct(4096, 64)
	for i := 0; i < 100; i++ {
		e.Add(types.NewInt(int64(i % 10)))
	}
	if got := e.Estimate(); got != 10 {
		t.Errorf("exact count = %g, want 10", got)
	}
	// Mixed kinds that compare equal count once (2 and 2.0 share a hash).
	e2 := NewHybridDistinct(4096, 64)
	e2.Add(types.NewInt(2))
	e2.Add(types.NewFloat(2.0))
	if got := e2.Estimate(); got != 1 {
		t.Errorf("2 and 2.0 counted as %g distinct values", got)
	}
}
