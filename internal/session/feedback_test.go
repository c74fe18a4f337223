package session

import (
	"context"
	"testing"

	"repro/internal/reopt"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// newStaleDB is the a⋈b fixture with b three times the size its
// statistics say: the first run of a join over it finds its plan
// suspect under Eq. 2 and feeds the rows it saw back.
func newStaleDB(t *testing.T) *testDB {
	t.Helper()
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	b, err := db.cat.Table("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(100); i < 400; i++ {
		if err := b.Insert(types.Tuple{types.NewInt(i), types.NewInt(i % 10), types.NewInt(i % 5), types.NewFloat(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const staleJoin = `select a_grp, count(*) as cnt from a, b
	where a.a_fk = b.b_pk and a_val < 500 group by a_grp order by a_grp`

func suspect(st *reopt.Stats) bool {
	for _, d := range st.Decisions {
		if d.Suspect() {
			return true
		}
	}
	return false
}

// On the benchmark's engine (bench.Default's data and operator budget,
// a 16 MiB broker pool, a 256-entry plan cache) the statements whose
// first run finds the plan suspect start their second run from what the
// first observed: Q5 no longer switches and costs less, Q8 loses no
// trial. Both return the same rows. The pool is emptied before every
// run so each starts cold.
func TestRepeatedStatementStartsFromObservedRows(t *testing.T) {
	db := newTestDB(256)
	if err := tpcd.Load(db.cat, tpcd.Config{SF: 0.01, Seed: 1, StaleFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	m := db.manager(Config{MemPoolBytes: 16 << 20, MemBudget: 2 << 20, PlanCacheSize: 256})
	run := func(name string) *Result {
		t.Helper()
		q, err := tpcd.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db.pool.EvictAll()
		res, err := m.Session().Exec(context.Background(), q.SQL, Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run("Q5")
	if first.Stats.PlanSwitches != 1 || first.FedBack {
		t.Fatalf("Q5's first run: %d switches, fed back %v; want 1 switch from a plan of estimates",
			first.Stats.PlanSwitches, first.FedBack)
	}
	second := run("Q5")
	if !second.CacheHit || !second.FedBack {
		t.Fatalf("Q5's second run: cache hit %v, fed back %v; want both", second.CacheHit, second.FedBack)
	}
	if second.Stats.PlanSwitches != 0 {
		t.Errorf("Q5's second run switched %d times, want 0", second.Stats.PlanSwitches)
	}
	if second.Cost >= first.Cost {
		t.Errorf("Q5 cost %.1f on the fed-back plan, %.1f on the first", second.Cost, first.Cost)
	}
	rowsEqual(t, "Q5", second.Rows, first.Rows)

	first = run("Q8")
	lost := func(r *Result) int {
		n := 0
		for _, d := range r.Stats.Decisions {
			if d.Cause == reopt.CauseTrialLost {
				n++
			}
		}
		return n
	}
	if lost(first) == 0 {
		t.Fatalf("Q8's first run lost no trial: %v", first.Stats.Decisions)
	}
	second = run("Q8")
	if !second.FedBack {
		t.Fatal("Q8's second run did not start from the fed-back plan")
	}
	if n := lost(second); n != 0 {
		t.Errorf("Q8's second run lost %d trials: %v", n, second.Stats.Decisions)
	}
	rowsEqual(t, "Q8", second.Rows, first.Rows)
	if st := m.CacheStats(); st.Feedbacks != 2 {
		t.Errorf("Feedbacks = %d, want 2 (Q5 and Q8)", st.Feedbacks)
	}
}

// One binding's rows say nothing about another's: a statement with a
// host variable never gets an overlay, however suspect its plan.
func TestHostVarStatementNeverLearns(t *testing.T) {
	db := newStaleDB(t)
	m := db.manager(Config{})
	s := m.Session()
	sawSuspect := false
	for _, cut := range []float64{500, 500, 900} {
		res, err := s.Exec(context.Background(), joinQuery, Options{
			Mode:   reopt.ModeFull,
			Params: map[string]types.Value{"cut": types.NewFloat(cut)},
		})
		if err != nil {
			t.Fatal(err)
		}
		sawSuspect = sawSuspect || suspect(res.Stats)
		if res.FedBack {
			t.Errorf("cut %v: a host-variable statement ran a fed-back plan", cut)
		}
	}
	if !sawSuspect {
		t.Fatal("no run found its plan suspect; the test checks nothing")
	}
	if st := m.CacheStats(); st.Feedbacks != 0 {
		t.Errorf("Feedbacks = %d, want 0", st.Feedbacks)
	}
}

// The overlay lives and dies with its entry: a commit on a table the
// statement reads drops both, and the next run plans from estimates.
func TestCommitDropsTheOverlay(t *testing.T) {
	db := newStaleDB(t)
	m := db.manager(Config{})
	s := m.Session()
	exec := func(src string) *Result {
		t.Helper()
		res, err := s.Exec(context.Background(), src, Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := exec(staleJoin); !suspect(res.Stats) {
		t.Fatalf("first run found nothing suspect: %v", res.Stats.Decisions)
	}
	if res := exec(staleJoin); !res.CacheHit || !res.FedBack {
		t.Fatalf("second run: cache hit %v, fed back %v; want both", res.CacheHit, res.FedBack)
	}
	exec("insert into b values (1000, 1, 1, 1.5)")
	res := exec(staleJoin)
	if res.CacheHit || res.FedBack {
		t.Errorf("after a commit on b: cache hit %v, fed back %v; want neither", res.CacheHit, res.FedBack)
	}
}

// A run during which a commit lands on a table the statement reads saw
// rows the catalog has moved past, and its entry is stale: it teaches
// nothing.
func TestCommitDuringRunTeachesNothing(t *testing.T) {
	db := newStaleDB(t)
	m := db.manager(Config{})
	writer := m.Session()
	res, err := m.Session().Exec(context.Background(), staleJoin, Options{
		Mode: reopt.ModeFull,
		CheckpointHook: func(int) {
			if _, err := writer.Exec(context.Background(), "insert into b values (1000, 1, 1, 1.5)", Options{}); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !suspect(res.Stats) {
		t.Fatalf("the run found nothing suspect: %v", res.Stats.Decisions)
	}
	if st := m.CacheStats(); st.Feedbacks != 0 {
		t.Errorf("Feedbacks = %d after a run a commit overtook, want 0", st.Feedbacks)
	}
}

// Inside an explicit transaction a query can see its own uncommitted
// writes, which no other run would see: it teaches the cache nothing.
func TestExplicitTransactionDoesNotLearn(t *testing.T) {
	db := newStaleDB(t)
	m := db.manager(Config{})
	s := m.Session()
	for _, src := range []string{"begin", staleJoin, "commit"} {
		res, err := s.Exec(context.Background(), src, Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		if src == staleJoin && !suspect(res.Stats) {
			t.Fatalf("the run found nothing suspect: %v", res.Stats.Decisions)
		}
	}
	if st := m.CacheStats(); st.Feedbacks != 0 {
		t.Errorf("Feedbacks = %d after a run inside a transaction, want 0", st.Feedbacks)
	}
}
