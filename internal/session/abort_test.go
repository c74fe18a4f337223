package session

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/memmgr"
	"repro/internal/reopt"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// newTPCDManager loads a small, deliberately stale TPC-D instance (so
// full-mode runs actually re-optimize) behind a session manager.
func newTPCDManager(t *testing.T, cfg Config) (*testDB, *Manager) {
	t.Helper()
	db := newTestDB(2048)
	if err := tpcd.Load(db.cat, tpcd.Config{SF: 0.005, Seed: 7, StaleFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	db.markPages()
	return db, db.manager(cfg)
}

// checkNoResidue is the abort invariant: no temp tables survive, no
// temp heap pages outlive the query, the broker pool is back at full
// capacity, and the running registry is empty.
func checkNoResidue(t *testing.T, label string, db *testDB, m *Manager) {
	t.Helper()
	if temps := db.cat.TempTables(); len(temps) != 0 {
		t.Fatalf("%s: residual temp tables %v", label, temps)
	}
	if db.basePages > 0 {
		if got := db.pool.Disk().NumPages(); got != db.basePages {
			t.Fatalf("%s: %d disk pages allocated, want the post-load baseline %d — leaked temp heap files",
				label, got, db.basePages)
		}
	}
	if st := m.Broker().Stats(); st.AvailBytes != st.PoolBytes {
		t.Fatalf("%s: broker still holds %.0f of %.0f bytes after abort",
			label, st.PoolBytes-st.AvailBytes, st.PoolBytes)
	}
	if got := m.Running(); len(got) != 0 {
		t.Fatalf("%s: stale entries in the running-query registry: %v", label, got)
	}
}

// runFaultSweep is the leak-check acceptance sweep: one clean pass over
// the TPC-D workload records every fault site the engine passes through
// (operator loops, checkpoint decisions, temp drops); then, for each
// site in turn, the workload is re-run with a one-shot error armed
// there and the abort invariant is asserted after every query.
// The workload runs at the given parallel degree. mustSee lists sites
// the recording run is required to reach — the low-grant variants use it
// to prove the spill paths are actually in the swept surface rather than
// vacuously absent.
func runFaultSweep(t *testing.T, cfg Config, degree int, mustSee []string) {
	db, m := newTPCDManager(t, cfg)
	queries := tpcd.Queries()
	if len(mustSee) > 0 {
		// The paper's queries group on low-cardinality columns and never
		// outgrow even tiny agg grants; a per-order rollup has one group
		// per order, which forces the aggregation spill path under the
		// low-grant config.
		queries = append(queries, tpcd.Query{Name: "QAggSpill", SQL: `
			select l_orderkey, sum(l_quantity) as qty, count(*) as cnt
			from lineitem group by l_orderkey`})
		// Likewise their joins build on two or three narrow key columns
		// of a dimension table, which fit the smallest grant; selecting
		// every column of orders makes a build side that does not (and
		// an unfiltered lineitem is too many probes for an index join).
		queries = append(queries, tpcd.Query{Name: "QJoinSpill", SQL: `
			select orders.*, l_shipmode
			from orders, lineitem where o_orderkey = l_orderkey limit 10`})
	}
	// No worker outlives its query: after each Exec, failed or not, the
	// goroutine count comes back to what it was before the query.
	run := func(q tpcd.Query) error {
		before := runtime.NumGoroutine()
		_, err := m.Session().Exec(context.Background(), q.SQL,
			Options{Mode: reopt.ModeFull, NoCache: true, Parallel: degree})
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive the query, %d ran before it", q.Name, runtime.NumGoroutine(), before)
			}
		}
		return err
	}

	inj := faultinject.Enable()
	defer faultinject.Disable()

	for _, q := range queries {
		if err := run(q); err != nil {
			t.Fatalf("clean %s: %v", q.Name, err)
		}
		checkNoResidue(t, "clean/"+q.Name, db, m)
	}
	sites := inj.Seen()
	if len(sites) < 6 {
		t.Fatalf("recording run saw only %d fault sites (%v); the sweep proves nothing", len(sites), sites)
	}
	for _, want := range mustSee {
		found := false
		for _, s := range sites {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("recording run never reached site %s (saw %v); the sweep would not cover the spill paths", want, sites)
		}
	}
	t.Logf("sweeping %d fault sites: %v", len(sites), sites)

	boom := errors.New("injected abort")
	for _, site := range sites {
		inj.Arm(site, faultinject.Fault{Err: boom})
		fired := false
		for _, q := range queries {
			err := run(q)
			// A fired fault usually surfaces as the query's error, but
			// not always: a failed temp drop is retried by the end-of-
			// query cleanup, and the query itself succeeds.
			if err != nil && !strings.Contains(err.Error(), boom.Error()) {
				t.Fatalf("site %s, %s: unexpected error %v", site, q.Name, err)
			}
			checkNoResidue(t, site+"/"+q.Name, db, m)
			if !inj.Armed(site) {
				fired = true
				break
			}
		}
		if !fired {
			t.Errorf("site %s was seen in the recording run but never fired in the sweep", site)
		}
		inj.Disarm(site)
	}

	// The engine comes out reusable: the whole workload still runs clean.
	for _, q := range queries {
		if err := run(q); err != nil {
			t.Fatalf("post-sweep %s: %v", q.Name, err)
		}
	}
	checkNoResidue(t, "post-sweep", db, m)
}

// TestFaultSweepTPCDNoLeaks sweeps at a moderate budget: joins mostly
// fit their grants, so this covers the in-memory paths plus the
// occasional spill.
func TestFaultSweepTPCDNoLeaks(t *testing.T) {
	runFaultSweep(t, Config{MemPoolBytes: 512 << 10, MemBudget: 512 << 10}, 1, nil)
}

// TestFaultSweepTPCDNoLeaksLowGrant re-runs the sweep with grants so
// small that every hash join and aggregation spills: partitioned
// build/probe heap files and spilled agg states must all be reclaimed
// when a fault lands mid-build, mid-probe, or mid-merge. The mustSee
// list pins the spill sites into the swept surface.
func TestFaultSweepTPCDNoLeaksLowGrant(t *testing.T) {
	runFaultSweep(t, Config{MemPoolBytes: 96 << 10, MemBudget: 96 << 10}, 1,
		[]string{"exec.hashjoin.spill", "exec.hashjoin.probe", "exec.agg.merge"})
}

// TestFaultSweepTPCDNoLeaksParallel re-runs the low-grant sweep at
// degree 2, which adds the region runtime's own sites — a goroutine's
// start, a routed tuple, a region's end — to the swept surface, under a
// dispatcher that switches plans between regions.
func TestFaultSweepTPCDNoLeaksParallel(t *testing.T) {
	runFaultSweep(t, Config{MemPoolBytes: 96 << 10, MemBudget: 96 << 10}, 2,
		[]string{"exec.hashjoin.spill", "exec.agg.merge", "exchange.worker", "exchange.route", "exchange.gather"})
}

// TestPanicRecoveredPerQuery pins the per-query fault boundary: a panic
// from inside an operator loop — standing in for any types.Value
// accessor panic (mistyped comparison, Int() on a string), which takes
// the same unwind path — becomes an ordinary query error, cleanup still
// runs, and the same session keeps working.
func TestPanicRecoveredPerQuery(t *testing.T) {
	db, m := newTPCDManager(t, Config{})
	inj := faultinject.Enable()
	defer faultinject.Disable()

	q3, err := tpcd.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	s := m.Session()
	inj.Arm("exec.scan.next", faultinject.Fault{Panic: "mistyped value access", After: 100})
	_, err = s.Exec(context.Background(), q3.SQL, Options{Mode: reopt.ModeFull})
	if err == nil || !strings.Contains(err.Error(), "query panic") {
		t.Fatalf("err = %v, want a recovered panic error", err)
	}
	checkNoResidue(t, "panic", db, m)
	if m.em.QueryErrors.Value() < 1 {
		t.Error("recovered panic was not counted as a query error")
	}
	if _, err := s.Exec(context.Background(), q3.SQL, Options{}); err != nil {
		t.Fatalf("session unusable after a recovered panic: %v", err)
	}
}

// TestCancelByTagMidExecution cancels a running query through the
// manager's registry — the same path POST /cancel takes — from inside
// an operator loop, so the cancel provably lands mid-execution.
func TestCancelByTagMidExecution(t *testing.T) {
	db, m := newTPCDManager(t, Config{})
	inj := faultinject.Enable()
	defer faultinject.Disable()

	q5, err := tpcd.ByName("Q5")
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm("exec.scan.next", faultinject.Fault{After: 500, Do: func() {
		for _, tag := range m.Running() {
			if !m.Cancel(tag) {
				t.Errorf("Cancel(%q) found no running query", tag)
			}
		}
	}})
	_, err = m.Session().Exec(context.Background(), q5.SQL, Options{Mode: reopt.ModeFull})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := m.em.QueriesCancelled.Value(); got != 1 {
		t.Errorf("queries_cancelled = %v, want 1", got)
	}
	checkNoResidue(t, "cancel", db, m)
	if m.Cancel("no_such_tag") {
		t.Error("Cancel of an unknown tag reported success")
	}
}

// TestDeadlineAbortsWedgedQuery wedges an operator mid-scan and relies
// on Options.Timeout alone to get the query back.
func TestDeadlineAbortsWedgedQuery(t *testing.T) {
	db, m := newTPCDManager(t, Config{})
	inj := faultinject.Enable()
	defer faultinject.Disable()

	q1, err := tpcd.ByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm("exec.scan.next", faultinject.Fault{After: 100, Delay: 200 * time.Millisecond})
	_, err = m.Session().Exec(context.Background(), q1.SQL,
		Options{Mode: reopt.ModeFull, Timeout: 30 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := m.em.QueriesCancelled.Value(); got != 1 {
		t.Errorf("queries_cancelled = %v, want 1", got)
	}
	checkNoResidue(t, "deadline", db, m)
}

// TestCancelDuringAdmissionUnblocksNext is the broker acceptance at the
// session layer: a query blocked in admission is cancelled by tag, and
// the query queued behind it — which fits the free pool — is admitted
// without any lease traffic forcing a queue re-scan.
func TestCancelDuringAdmissionUnblocksNext(t *testing.T) {
	db := newTestDB(4096)
	// Big relations so the three-way join's memory minimum swallows the
	// whole pool (it is clamped to the pool size at admission).
	db.addTable(t, "rel1", 30000, 15000, 25)
	db.addTable(t, "rel2", 15000, 20000, 5)
	db.addTable(t, "rel3", 20000, 5, 5)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)

	const pool = 1 << 20
	m := db.manager(Config{MemPoolBytes: pool, MemBudget: pool})
	queued := make(chan string, 4)
	m.Broker().SetTrace(func(ev memmgr.Event) {
		if ev.Kind == "queue" {
			queued <- ev.Query
		}
	})

	// A filler lease keeps the pool full while the two queries line up.
	filler, err := m.Broker().Admit(context.Background(), "filler", pool, pool)
	if err != nil {
		t.Fatal(err)
	}

	bErr := make(chan error, 1)
	go func() {
		_, err := m.Session().Exec(context.Background(), `select rel1_grp, count(*) as cnt
			from rel1, rel2, rel3
			where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
			and rel1_val < :cut group by rel1_grp`, Options{
			Params: map[string]types.Value{"cut": types.NewFloat(150)},
		})
		bErr <- err
	}()
	tagB := <-queued

	cErr := make(chan error, 1)
	go func() {
		_, err := m.Session().Exec(context.Background(), joinQuery, Options{
			Params: map[string]types.Value{"cut": types.NewFloat(500)},
		})
		cErr <- err
	}()
	<-queued // C is in line behind B

	// Free half the pool: enough for C, not for B, so FIFO keeps both
	// waiting with B at the head.
	filler.Return(pool / 2)
	if !m.Cancel(tagB) {
		t.Fatalf("Cancel(%q) found no running query", tagB)
	}
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("B's Exec = %v, want context.Canceled", err)
	}
	select {
	case err := <-cErr:
		if err != nil {
			t.Fatalf("C failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("C still blocked in admission after the query ahead of it was cancelled")
	}

	filler.Release()
	checkNoResidue(t, "admission-cancel", db, m)
}
