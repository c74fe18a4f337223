package reopt

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/memmgr"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestBrokeredReallocAdmitsWaiter is the multi-query payoff of §2.3:
// query A is admitted with the whole broker pool, query B's admission
// queues behind it, and B is admitted mid-A — strictly between A's
// re-allocation returning surplus memory and A finishing — because the
// improved run-time estimates showed A's grant was an over-reservation.
func TestBrokeredReallocAdmitsWaiter(t *testing.T) {
	// The Figure 3 environment: the optimizer over-estimates the
	// host-var filter on rel1 3x, so re-allocation at the first
	// checkpoint shrinks the not-yet-started join's demands and the
	// brokered dispatcher returns the difference.
	e := newEnv(4096)
	e.addTable(t, "rel1", 30000, 15000, 25)
	e.addTable(t, "rel2", 15000, 20000, 5)
	e.addTable(t, "rel3", 20000, 5, 5)
	e.analyzeAll(t)
	params := plan.Params{"cut": types.NewFloat(150)}
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :cut group by rel1_grp`

	const pool = 1 << 20
	broker := memmgr.NewBroker(pool)
	var mu sync.Mutex
	var events []memmgr.Event
	broker.SetTrace(func(ev memmgr.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	// A takes the entire pool.
	leaseA, err := broker.Admit(context.Background(), "A", pool, pool)
	if err != nil {
		t.Fatal(err)
	}
	if leaseA.Held() != pool {
		t.Fatalf("A holds %.0f, want the whole pool", leaseA.Held())
	}

	// B asks for a modest reservation and must queue: nothing is free.
	const bMin = 64 << 10
	admittedB := make(chan *memmgr.Lease, 1)
	go func() {
		l, err := broker.Admit(context.Background(), "B", bMin, bMin)
		if err != nil {
			t.Error(err)
		}
		admittedB <- l
	}()
	deadline := time.Now().Add(5 * time.Second)
	for broker.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Run A's query synchronously under its lease. The memory-only
	// dispatcher re-allocates at the first checkpoint, returns the
	// surplus, and — inside that same broker transition — admits B.
	cfg := DefaultConfig(ModeMemoryOnly)
	cfg.MemBudget = pool
	cfg.Lease = leaseA
	cfg.QueryTag = "A"
	cfg.PoolPages = float64(e.pool.Capacity())
	d := New(e.cat, cfg)
	rows, _, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("A returned no rows")
	}
	returned := leaseA.Stats()
	if returned.Returns == 0 {
		t.Fatal("A's re-allocation returned nothing to the broker")
	}
	leaseA.Release()

	leaseB := <-admittedB
	defer leaseB.Release()
	if !leaseB.Waited() {
		t.Error("B did not wait for admission")
	}

	// The trace gives a total order over broker transitions: B's
	// admission must fall after A's surplus return and before A's
	// release — it ran on memory A gave back mid-query, not on memory
	// freed by A finishing.
	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, ev := range events {
		key := ev.Kind + " " + ev.Query
		if _, ok := idx[key]; !ok {
			idx[key] = i
		}
	}
	retA, okR := idx["return A"]
	admB, okB := idx["admit B"]
	relA, okRel := idx["release A"]
	if !okR || !okB || !okRel {
		t.Fatalf("missing transitions in trace: %v", events)
	}
	if !(retA < admB && admB < relA) {
		t.Errorf("B admitted outside A's return window: return A@%d, admit B@%d, release A@%d\ntrace: %v",
			retA, admB, relA, events)
	}
	if returned.ReturnedBytes < bMin {
		t.Errorf("returned %.0f bytes, less than B's minimum %d — admission ordering was luck",
			returned.ReturnedBytes, bMin)
	}
}
