package session

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/reopt"
	"repro/internal/types"
)

// TestSessionParallelExec: a degree-4 query through the session layer
// matches serial results and leaves the broker pool whole and no temp
// tables behind.
func TestSessionParallelExec(t *testing.T) {
	db := newTestDB(2048)
	db.addTable(t, "a", 6000, 500, 10)
	db.addTable(t, "b", 500, 50, 5)
	m := db.manager(Config{})
	s := m.Session()
	params := map[string]types.Value{"cut": types.NewFloat(1e9)}

	serial, err := s.Exec(context.Background(), joinQuery, Options{Mode: reopt.ModeFull, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.Exec(context.Background(), joinQuery, Options{Mode: reopt.ModeFull, Params: params, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "parallel vs serial", par.Rows, serial.Rows)
	if par.Stats.Degree != 4 || par.Stats.WorkersSpawned == 0 {
		t.Errorf("degree=%d workers=%d, want parallel execution evidence",
			par.Stats.Degree, par.Stats.WorkersSpawned)
	}
	if st := m.Broker().Stats(); st.AvailBytes != st.PoolBytes {
		t.Errorf("broker pool not whole after parallel query: %.0f of %.0f available",
			st.AvailBytes, st.PoolBytes)
	}
	for _, name := range db.cat.Tables() {
		if strings.HasPrefix(name, "mqr_") {
			t.Errorf("leftover temp table %s", name)
		}
	}
}

// TestSessionParallelCancel: cancelling a degree-4 query mid-flight
// unwinds every worker goroutine, drops temps, and releases the lease.
func TestSessionParallelCancel(t *testing.T) {
	db := newTestDB(2048)
	db.addTable(t, "a", 6000, 500, 10)
	db.addTable(t, "b", 500, 50, 5)
	m := db.manager(Config{})
	s := m.Session()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the query must abort at its first poll
	_, err := s.Exec(ctx, joinQuery, Options{
		Mode:     reopt.ModeFull,
		Params:   map[string]types.Value{"cut": types.NewFloat(1e9)},
		Parallel: 4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := m.Broker().Stats(); st.AvailBytes != st.PoolBytes {
		t.Errorf("broker pool not whole after cancelled parallel query: %.0f of %.0f",
			st.AvailBytes, st.PoolBytes)
	}
	for _, name := range db.cat.Tables() {
		if strings.HasPrefix(name, "mqr_") {
			t.Errorf("leftover temp table %s", name)
		}
	}
}

// TestParallelFingerprint: degree participates in the plan-cache key,
// and serial spellings (0 and 1) share one entry.
func TestParallelFingerprint(t *testing.T) {
	s := &Session{m: &Manager{cfg: Config{MemBudget: 1 << 20}}}
	s.m.pool = newTestDB(64).pool
	f0 := s.fingerprint(Options{})
	f1 := s.fingerprint(Options{Parallel: 1})
	f4 := s.fingerprint(Options{Parallel: 4})
	if f0 != f1 {
		t.Errorf("degree 0 and 1 fingerprints differ: %q vs %q", f0, f1)
	}
	if f0 == f4 {
		t.Errorf("degree 4 shares the serial fingerprint %q", f0)
	}
	if !strings.Contains(f4, "par=4") {
		t.Errorf("fingerprint %q does not name the degree", f4)
	}
}
