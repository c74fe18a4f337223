package session

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/reopt"
	"repro/internal/types"
)

// A positive Options.MemBudget runs the query under that private budget:
// no lease, no admission, and a plan cached under one budget is never
// served to another.
func TestPrivateBudgetBypassesBrokerAndKeysTheCache(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	s := m.Session()
	ctx := context.Background()
	params := map[string]types.Value{"cut": types.NewFloat(500)}
	run := func(budget float64) *Result {
		t.Helper()
		res, err := s.Exec(ctx, joinQuery, Options{Mode: reopt.ModeFull, Params: params, MemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	brokered := run(0)
	if brokered.Broker.Admitted <= 0 {
		t.Fatalf("brokered run recorded no admission: %+v", brokered.Broker)
	}
	admitted := m.Broker().Stats().Admitted

	small := run(128 << 10)
	if small.CacheHit {
		t.Error("a 128 KiB private budget was served the plan cached under the manager's budget")
	}
	if small.Broker.Admitted != 0 || m.Broker().Stats().Admitted != admitted {
		t.Errorf("private-budget query went through the broker: %+v", small.Broker)
	}
	rowsEqual(t, "private budget", small.Rows, brokered.Rows)

	if big := run(8 << 20); big.CacheHit {
		t.Error("an 8 MiB private budget was served the 128 KiB budget's plan")
	}
	if again := run(128 << 10); !again.CacheHit {
		t.Error("same private budget did not hit its own cache entry")
	}
	if st := m.Broker().Stats(); st.AvailBytes != st.PoolBytes {
		t.Errorf("broker not repaid: %+v", st)
	}
}

// Statements that never reach the dispatcher still answer with a usable
// Stats, so callers can read res.Stats after any statement.
func TestNonQueryResultsCarryEmptyStats(t *testing.T) {
	db := newTestDB(64)
	db.addTable(t, "r", 20, 10, 5)
	s := db.manager(Config{}).Session()
	for _, src := range []string{
		"begin",
		"insert into r (r_pk, r_fk, r_grp, r_val) values (900, 1, 1, 1.5)",
		"commit",
		"begin",
		"rollback",
		"delete from r where r_pk = 900",
	} {
		res, err := s.Exec(context.Background(), src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Stats == nil {
			t.Errorf("%s: nil Stats", src)
		}
	}
}

// Index creation quiesces the engine like ANALYZE: it waits for running
// queries and holds new ones off until the index is complete.
func TestCreateIndexTakesTheSchemaLockExclusively(t *testing.T) {
	db := newTestDB(256)
	db.addTable(t, "a", 500, 100, 10)
	m := db.manager(Config{})

	// Every Exec holds the schema lock shared for its whole query; stand
	// in for a running one.
	m.schemaMu.RLock()
	indexDone := make(chan error, 1)
	go func() { indexDone <- m.CreateIndex("a", "a_fk") }()
	select {
	case err := <-indexDone:
		t.Fatalf("CreateIndex finished (err=%v) while a query held the schema lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.schemaMu.RUnlock()
	if err := <-indexDone; err != nil {
		t.Fatal(err)
	}
	if err := m.CreateIndex("a", "a_fk"); err == nil {
		t.Error("duplicate index accepted")
	}
	res, err := m.Session().Exec(context.Background(), "select a_pk from a where a_fk = 7", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("query after index creation: %d rows, want 5", len(res.Rows))
	}
}

func TestSessionExplainCompilesWithoutExecuting(t *testing.T) {
	db := newTestDB(256)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	before := db.meter.Snapshot()
	text, err := m.Session().Explain(joinQuery, Options{Mode: reopt.ModeFull, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hash-join", "statistics-collector", "exchange", "grant="} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	if cost := db.meter.Snapshot().Sub(before).Cost(); cost != 0 {
		t.Errorf("Explain charged %.1f to the meter", cost)
	}
	if n := m.Broker().Stats().Admitted; n != 0 {
		t.Errorf("Explain admitted %d leases", n)
	}
	if _, err := m.Session().Explain("select nothing from nowhere", Options{}); err == nil {
		t.Error("bad SQL explained")
	}
}
