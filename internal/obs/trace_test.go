package obs

import "testing"

func TestNilTraceIsDisabledNoOp(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Emit("plan", "ignored", "k", 1) // must not panic
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace is not empty")
	}
}

func TestTraceRecordsAttrs(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit("checkpoint", "step 0", "est_rows", 100.0, "obs_rows", 250.0)
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	if ev[0].Kind != "checkpoint" || ev[0].Msg != "step 0" {
		t.Fatalf("bad event %+v", ev[0])
	}
	if ev[0].Attrs["obs_rows"] != 250.0 {
		t.Fatalf("attrs = %v", ev[0].Attrs)
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Emit("k", "m")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	ev := tr.Events()
	if ev[0].Seq != 2 || ev[2].Seq != 4 {
		t.Fatalf("kept wrong window: %+v", ev)
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < DefaultTraceCap+10; i++ {
		tr.Emit("k", "m")
	}
	if tr.Len() != DefaultTraceCap {
		t.Fatalf("len = %d, want %d", tr.Len(), DefaultTraceCap)
	}
}

// TestTraceRingGrowsToItsCapacity: a ring that starts small and grows as
// events arrive keeps the same window and drop count as one allocated
// at full capacity.
func TestTraceRingGrowsToItsCapacity(t *testing.T) {
	tr := NewTrace(100)
	for i := 0; i < 130; i++ {
		tr.Emit("k", "m")
	}
	if tr.Len() != 100 || tr.Dropped() != 30 {
		t.Fatalf("len = %d, dropped = %d, want 100 and 30", tr.Len(), tr.Dropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		if e.Seq != 30+i {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 30+i)
		}
	}
}
