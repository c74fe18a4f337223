package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/reopt"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// Scans charge the pages they miss through the meter their context
// carries — serial scans, DML match scans and index-join fetches, as
// partition scans always did — and that meter is the statement's own, a
// tributary of the engine's flushed when the statement ends. So the
// attribution moves nothing that can be read: from a cold pool Q3's
// Result.Cost is the engine meter's delta, and serially that delta is,
// counter for counter, what the engine charged when serial misses went
// to the disk's meter by default (the numbers below were taken before
// scans charged the context's meter: same load, same plan).
func TestScanReadsChargedThroughContextMeter(t *testing.T) {
	db, m := newTPCDManager(t, Config{})
	q3, err := tpcd.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(degree int) storage.Snapshot {
		t.Helper()
		db.pool.EvictAll()
		before := db.meter.Snapshot()
		res, err := m.Session().Exec(context.Background(), q3.SQL, Options{Mode: reopt.ModeOff, Parallel: degree})
		if err != nil {
			t.Fatal(err)
		}
		d := db.meter.Snapshot().Sub(before)
		if res.Cost != d.Cost() || d.PageReads == 0 {
			t.Errorf("degree %d: Result.Cost %.3f, the engine meter moved by %v", degree, res.Cost, d)
		}
		return d
	}
	if d := run(1); d.PageReads != 509 || d.PageWrites != 0 || d.TupleCPU != 60901 || d.StatCPU != 0 {
		t.Errorf("cold serial Q3 charged %v; want reads=509 writes=0 cpu=60901 stat=0", d)
	}
	run(2) // page reads vary with the workers' interleaving; the identity above must not
}

// A query's decisions read its own meter: with the whole database in
// the pool, query A's Cost and the Elapsed and Improved of every one of
// its checkpoint decisions are what they are when A runs alone, although
// another session's query runs to its end inside each of A's
// checkpoints.
func TestOverlappingQueryLeavesDecisionsAlone(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	q5, err := tpcd.ByName("Q5")
	if err != nil {
		t.Fatal(err)
	}
	q10, err := tpcd.ByName("Q10")
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.Session(), m.Session()
	opts := Options{Mode: reopt.ModeFull, NoCache: true}
	run := func(s *Session, src string, opts Options) *Result {
		t.Helper()
		res, err := s.Exec(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(a, q5.SQL, opts) // warm the pool: from here on nothing misses
	other := run(b, q10.SQL, opts)
	solo := run(a, q5.SQL, opts)
	overlapped := opts
	overlapped.CheckpointHook = func(int) { run(b, q10.SQL, opts) }
	got := run(a, q5.SQL, overlapped)
	if len(solo.Stats.Decisions) == 0 || other.Cost == 0 {
		t.Fatalf("Q5 reached %d checkpoints and Q10 cost %.2f: nothing overlapped", len(solo.Stats.Decisions), other.Cost)
	}
	if got.Cost != solo.Cost {
		t.Errorf("Q5 cost %.2f beside Q10, %.2f alone", got.Cost, solo.Cost)
	}
	if len(got.Stats.Decisions) != len(solo.Stats.Decisions) {
		t.Fatalf("Q5 made %d decisions beside Q10, %d alone", len(got.Stats.Decisions), len(solo.Stats.Decisions))
	}
	for i, d := range got.Stats.Decisions {
		if s := solo.Stats.Decisions[i]; d.Elapsed != s.Elapsed || d.Improved != s.Improved {
			t.Errorf("decision %d: elapsed %.2f improved %.2f beside Q10, %.2f and %.2f alone",
				i, d.Elapsed, d.Improved, s.Elapsed, s.Improved)
		}
	}
}

// A query's decisions read what its snapshot can see: another session
// commits a write inside the query's first checkpoint, and the query's
// rows, Cost and every checkpoint record are what they are when it runs
// alone. Each cell loads a fresh database, so every write meets the
// same data. Q8 sits out the insert and update cells: its index joins
// price their inner table by the heap's live page and tuple counts,
// which count versions the snapshot cannot see.
func TestOverlappingCommitLeavesDecisionsAlone(t *testing.T) {
	var orders strings.Builder
	for i := 0; i < 400; i++ {
		if i > 0 {
			orders.WriteString(", ")
		}
		fmt.Fprintf(&orders, "(%d, 1, 'O', 1000.0, date '1994-06-01', '1-URGENT', 0)", 100001+i)
	}
	type write struct{ name, sql string }
	deletes := []write{
		{"delete lineitem", "delete from lineitem where l_orderkey <= 3750"},
		{"delete orders", "delete from orders where o_orderkey <= 3750"},
		{"delete customer", "delete from customer where c_custkey <= 375"},
		{"delete supplier", "delete from supplier where s_suppkey <= 25"},
	}
	rewrites := []write{
		{"insert orders", "insert into orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, " +
			"o_orderdate, o_orderpriority, o_shippriority) values " + orders.String()},
		{"update orders", "update orders set o_totalprice = 1.0 where o_orderkey <= 3750"},
		{"update customer", "update customer set c_acctbal = 1.0 where c_custkey <= 375"},
	}
	check := func(name string, w write) {
		t.Helper()
		_, m := newTPCDManager(t, Config{})
		q, err := tpcd.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := m.Session(), m.Session()
		opts := Options{Mode: reopt.ModeFull, NoCache: true}
		run := func(opts Options) *Result {
			t.Helper()
			res, err := a.Exec(context.Background(), q.SQL, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run(opts) // warm the pool
		solo := run(opts)
		var once sync.Once
		written := opts
		written.CheckpointHook = func(int) {
			once.Do(func() {
				res, err := b.Exec(context.Background(), w.sql, Options{})
				if err != nil {
					t.Errorf("%s: %v", w.name, err)
				} else if res.RowsAffected == 0 {
					t.Errorf("%s touched no row", w.name)
				}
			})
		}
		got := run(written)
		label := name + " beside " + w.name
		if len(solo.Stats.Decisions) == 0 {
			t.Fatalf("%s reached no checkpoint: nothing overlapped", name)
		}
		rowsEqual(t, label, got.Rows, solo.Rows)
		if got.Cost != solo.Cost {
			t.Errorf("%s: cost %.2f, %.2f alone", label, got.Cost, solo.Cost)
		}
		if len(got.Stats.Decisions) != len(solo.Stats.Decisions) {
			t.Errorf("%s: %d decisions, %d alone", label, len(got.Stats.Decisions), len(solo.Stats.Decisions))
			return
		}
		for i, d := range got.Stats.Decisions {
			s := solo.Stats.Decisions[i]
			if d.Step != s.Step || d.Cause != s.Cause || d.Elapsed != s.Elapsed || d.Improved != s.Improved || d.Trial != s.Trial {
				t.Errorf("%s: decision %d is %v, alone %v", label, i, d, s)
			}
		}
	}
	for _, q := range []string{"Q3", "Q10", "Q5", "Q7", "Q8"} {
		for _, w := range deletes {
			check(q, w)
		}
		if q != "Q8" {
			for _, w := range rewrites {
				check(q, w)
			}
		}
	}
}

// A statement cancelled in the middle of a spilled hash join's probe
// still forwards every charge: its partitions' pages, written back as
// the join's Close drops them, are charged to the statement's meter,
// which reaches the engine's meter on the way out.
func TestCancelMidSpillForwardsEveryCharge(t *testing.T) {
	db, m := newTPCDManager(t, Config{MemPoolBytes: 96 << 10, MemBudget: 96 << 10})
	inj := faultinject.Enable()
	defer faultinject.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tag string
	inj.Arm("exec.hashjoin.probe", faultinject.Fault{After: 100, Do: func() { tag = m.Running()[0]; cancel() }})
	db.pool.EvictAll()
	before := db.meter.Snapshot()
	_, err := m.Session().Exec(ctx, `select orders.*, l_shipmode
		from orders, lineitem where o_orderkey = l_orderkey`, Options{Mode: reopt.ModeOff})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	own := m.Progress().Get(tag).Meter // the statement's own meter
	got := own.Snapshot()
	if u := own.Unflushed(); u != (storage.Snapshot{Weights: u.Weights}) {
		t.Errorf("the cancelled statement kept %v from the engine's meter", u)
	}
	if got.PageWrites == 0 {
		t.Errorf("the cancelled statement's meter holds %v: no spill page written back", got)
	}
	if d := db.meter.Snapshot().Sub(before); d != got {
		t.Errorf("the engine's meter moved by %v, the cancelled statement's holds %v", d, got)
	}
	checkNoResidue(t, "cancel mid-spill", db, m)
}
