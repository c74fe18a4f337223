package fuzz

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/reopt"
	"repro/internal/session"
)

// TestIntrospectionDoesNotPerturb hammers the mqr system tables from
// concurrent sessions while a forced-switch workload runs, pinning the
// observability invariants: the pollers never deadlock, never error,
// never see an ill-formed row, and the observed workload's answers are
// byte-identical to the unobserved reference.
func TestIntrospectionDoesNotPerturb(t *testing.T) {
	env, err := Build(Case{Seed: 11, NTables: 3, JoinK: 3, MaxRows: 400, StalePct: 40})
	if err != nil {
		t.Fatal(err)
	}
	mgr := newManager(env, bigBudget)
	sess := mgr.Session()
	opts := session.Options{
		Mode:    reopt.ModeFull,
		Params:  env.Params,
		NoCache: true,
		// Forced thresholds make mid-query switches routine, so the
		// pollers race against checkpoints and plan replacement too.
		Theta1: 100,
		Theta2: 0.001,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var polls, sawRunning atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := mgr.Session()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ps.Exec(context.Background(),
					"select query, state, fraction, score from mqr.queries",
					session.Options{NoProgress: true})
				if err != nil {
					t.Errorf("poller: %v", err)
					return
				}
				for _, row := range res.Rows {
					state := row[1].Str()
					if state != "running" && state != "done" {
						t.Errorf("ill-formed state %q for %s", state, row[0].Str())
						return
					}
					if f := row[2].Float(); f < 0 || f > 1 {
						t.Errorf("fraction %v out of [0,1] for %s", f, row[0].Str())
						return
					}
					if state == "running" {
						sawRunning.Add(1)
					}
				}
				if _, err := ps.Exec(context.Background(),
					"select query, rows from mqr.operators",
					session.Options{NoProgress: true}); err != nil {
					t.Errorf("operator poller: %v", err)
					return
				}
				polls.Add(1)
			}
		}()
	}

	for i := 0; i < 20; i++ {
		res, err := sess.Exec(context.Background(), env.SQL, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := Canonical(res.Rows)
		if len(got) != len(env.Want) {
			t.Fatalf("run %d: %d rows, reference has %d", i, len(got), len(env.Want))
		}
		for j := range got {
			if got[j] != env.Want[j] {
				t.Fatalf("run %d row %d: got %s, want %s", i, j, got[j], env.Want[j])
			}
		}
	}
	close(stop)
	wg.Wait()

	if polls.Load() == 0 {
		t.Fatal("pollers never completed a single introspection round")
	}
	t.Logf("%d poll rounds, %d running-row observations", polls.Load(), sawRunning.Load())

	// The usual cleanup invariants still hold with observers attached.
	if msg := checkResidue(env, mgr); msg != "" {
		t.Fatal(msg)
	}
}

// TestKeyPredicatesReachTheIndexScan: the generator's primary-key
// predicates are not only filtered by a seq scan — on an indexed t0 the
// optimizer reads some of them through the index, so the differential
// checks cover the index scan's answers too.
func TestKeyPredicatesReachTheIndexScan(t *testing.T) {
	hits := 0
	for seed := int64(1); seed <= 200 && hits < 3; seed++ {
		c := NewCase(seed)
		if !c.KeyPred {
			continue
		}
		env, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if !env.Tables[0].Indexed {
			continue
		}
		plan, err := newManager(env, bigBudget).Session().Explain(env.SQL, session.Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "index-scan") {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no generated key predicate was read through an index")
	}
}
