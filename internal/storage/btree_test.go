package storage

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestBTreeInsertLookup(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	for i := 0; i < 10000; i++ {
		bt.Insert(types.NewInt(int64(i)), RID{Page: PageID(i + 1), Slot: 0})
	}
	if bt.Len() != 10000 {
		t.Errorf("Len = %d", bt.Len())
	}
	if bt.Height() < 2 {
		t.Errorf("Height = %d, want a split tree", bt.Height())
	}
	for _, k := range []int64{0, 1, 4999, 9999} {
		rids := bt.Lookup(types.NewInt(k), nil, nil)
		if len(rids) != 1 || rids[0].Page != PageID(k+1) {
			t.Errorf("Lookup(%d) = %v", k, rids)
		}
	}
	if rids := bt.Lookup(types.NewInt(10001), nil, nil); rids != nil {
		t.Errorf("Lookup(absent) = %v", rids)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	for i := 0; i < 50; i++ {
		bt.Insert(types.NewInt(7), RID{Page: PageID(i + 1)})
	}
	rids := bt.Lookup(types.NewInt(7), nil, nil)
	if len(rids) != 50 {
		t.Errorf("duplicate Lookup returned %d rids", len(rids))
	}
}

func TestBTreeRandomOrderSortedIteration(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(5000)
	for _, k := range keys {
		bt.Insert(types.NewInt(int64(k)), RID{Page: PageID(k + 1)})
	}
	var got []int64
	bt.Range(types.Null(), types.Null(), nil, func(k types.Value, rids []RID) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 5000 {
		t.Fatalf("full Range visited %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("Range iteration not sorted")
	}
}

func TestBTreeRangeBounds(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	for i := 0; i < 100; i++ {
		bt.Insert(types.NewInt(int64(i)), RID{Page: PageID(i + 1)})
	}
	var got []int64
	bt.Range(types.NewInt(10), types.NewInt(20), nil, func(k types.Value, rids []RID) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Errorf("Range[10,20] = %v", got)
	}
	// Early stop.
	n := 0
	bt.Range(types.Null(), types.Null(), nil, func(k types.Value, rids []RID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Lower bound only.
	got = got[:0]
	bt.Range(types.NewInt(95), types.Null(), nil, func(k types.Value, rids []RID) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 5 {
		t.Errorf("Range[95,∞) = %v", got)
	}
}

func TestBTreeLookupChargesIO(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	bt.Insert(types.NewInt(1), RID{Page: 1})
	before := m.Snapshot()
	bt.Lookup(types.NewInt(1), nil, nil)
	if d := m.Snapshot().Sub(before); d.PageReads != 1 {
		t.Errorf("Lookup charged %d reads, want 1", d.PageReads)
	}
}

func TestBTreeProbesChargeTheCallersMeter(t *testing.T) {
	shared := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(shared)
	for i := 0; i < 200; i++ {
		bt.Insert(types.NewInt(int64(i%10)), RID{Page: PageID(i + 1)})
	}
	own := NewCostMeter(DefaultCostWeights())
	before := shared.Snapshot()
	buf := make([]RID, 0, 64)
	rids := bt.Lookup(types.NewInt(3), own, buf)
	if len(rids) != 20 || &rids[0] != &buf[:1][0] {
		t.Errorf("Lookup returned %d rids, appended into dst: %v", len(rids), &rids[0] == &buf[:1][0])
	}
	bt.Range(types.NewInt(2), types.NewInt(4), own, func(types.Value, []RID) bool { return true })
	if d := shared.Snapshot().Sub(before); d.PageReads != 0 {
		t.Errorf("probes charged %d reads to the tree's meter", d.PageReads)
	}
	if got := own.Snapshot().PageReads; got < 2 {
		t.Errorf("caller's meter charged %d reads, want a leaf per probe", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { rids = bt.Lookup(types.NewInt(3), own, rids[:0]) }); allocs != 0 {
		t.Errorf("Lookup into a reused slice allocates %v times", allocs)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(NewCostMeter(DefaultCostWeights()))
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		k   int64
		rid RID
	}
	var all []entry
	for i := 0; i < 3000; i++ {
		e := entry{int64(rng.Intn(300)), RID{Page: PageID(i + 1)}}
		bt.Insert(types.NewInt(e.k), e.rid)
		all = append(all, e)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	gone, kept := all[:2000], all[2000:]
	for _, e := range gone {
		if !bt.Delete(types.NewInt(e.k), e.rid) {
			t.Fatalf("Delete(%d, %v) found nothing", e.k, e.rid)
		}
	}
	if bt.Delete(types.NewInt(gone[0].k), gone[0].rid) {
		t.Error("second Delete of one entry reported it present")
	}
	if bt.Len() != int64(len(kept)) {
		t.Errorf("Len = %d after deletes, want %d", bt.Len(), len(kept))
	}
	want := map[int64]int{}
	for _, e := range kept {
		want[e.k]++
	}
	total := 0
	prev := int64(-1)
	bt.Range(types.Null(), types.Null(), nil, func(k types.Value, rids []RID) bool {
		if k.Int() <= prev || len(rids) == 0 || len(rids) != want[k.Int()] {
			t.Errorf("key %d after %d: %d rids, want %d", k.Int(), prev, len(rids), want[k.Int()])
		}
		prev = k.Int()
		total += len(rids)
		return true
	})
	if total != len(kept) {
		t.Errorf("Range visits %d entries, want %d", total, len(kept))
	}
	// Deleted keys can come back.
	bt.Insert(types.NewInt(gone[0].k), gone[0].rid)
	if rids := bt.Lookup(types.NewInt(gone[0].k), nil, nil); !slices.Contains(rids, gone[0].rid) {
		t.Errorf("re-inserted entry missing: %v", rids)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	m := NewCostMeter(DefaultCostWeights())
	bt := NewBTree(m)
	words := []string{"pear", "apple", "fig", "mango", "banana"}
	for i, w := range words {
		bt.Insert(types.NewString(w), RID{Page: PageID(i + 1)})
	}
	var got []string
	bt.Range(types.Null(), types.Null(), nil, func(k types.Value, rids []RID) bool {
		got = append(got, k.Str())
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted strings = %v, want %v", got, want)
		}
	}
}

func TestBTreeProperty(t *testing.T) {
	// Property: after inserting any multiset of int keys, every key is
	// findable and a full range scan is sorted and complete.
	f := func(keys []int16) bool {
		m := NewCostMeter(DefaultCostWeights())
		bt := NewBTree(m)
		counts := map[int64]int{}
		for i, k := range keys {
			bt.Insert(types.NewInt(int64(k)), RID{Page: PageID(i + 1)})
			counts[int64(k)]++
		}
		total := 0
		prev := int64(-40000)
		ok := true
		bt.Range(types.Null(), types.Null(), nil, func(k types.Value, rids []RID) bool {
			if k.Int() <= prev {
				ok = false
			}
			prev = k.Int()
			if len(rids) != counts[k.Int()] {
				ok = false
			}
			total += len(rids)
			return true
		})
		return ok && total == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
