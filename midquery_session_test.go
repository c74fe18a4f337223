package midquery

// The library façade runs every statement through internal/session.
// These tests cover what that buys — a write path, snapshot reads and
// deadlines for prepared plans — and pin the claim that DB.Exec and a
// SessionManager session given the same private budget are one path.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/session"
)

// openAccounts builds a small analyzed table for the write-path tests.
func openAccounts(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{})
	if err := db.CreateTable("acct",
		Column{Name: "id", Kind: KindInt, Key: true},
		Column{Name: "balance", Kind: KindFloat},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("acct", i, float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("acct", MaxDiff); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *DB, src string) *Result {
	t.Helper()
	res, err := db.Exec(src, ExecOptions{})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if res.Stats == nil {
		t.Fatalf("%s: nil Stats", src)
	}
	return res
}

func countAccounts(t *testing.T, db *DB, where string) int64 {
	t.Helper()
	return int64(len(mustExec(t, db, "select id from acct where "+where).Rows))
}

func TestExecAutocommitDML(t *testing.T) {
	db := openAccounts(t)
	res := mustExec(t, db, "insert into acct (id, balance) values (1000, 1.5), (1001, 2.5)")
	if res.RowsAffected != 2 {
		t.Errorf("insert RowsAffected = %d, want 2", res.RowsAffected)
	}
	if res.Cost <= 0 {
		t.Error("insert charged no cost")
	}
	if res := mustExec(t, db, "update acct set balance = 9.0 where id >= 1000"); res.RowsAffected != 2 {
		t.Errorf("update RowsAffected = %d, want 2", res.RowsAffected)
	}
	if n := countAccounts(t, db, "balance = 9.0"); n != 2 {
		t.Errorf("updated rows visible = %d, want 2", n)
	}
	if res := mustExec(t, db, "delete from acct where id >= 1000"); res.RowsAffected != 2 {
		t.Errorf("delete RowsAffected = %d, want 2", res.RowsAffected)
	}
	if n := countAccounts(t, db, "id >= 0"); n != 50 {
		t.Errorf("rows after delete = %d, want 50", n)
	}
}

func TestExecExplicitTransactionRollback(t *testing.T) {
	db := openAccounts(t)
	mustExec(t, db, "begin")
	if _, err := db.Exec("begin", ExecOptions{}); err == nil {
		t.Error("nested BEGIN accepted")
	}
	mustExec(t, db, "insert into acct (id, balance) values (2000, 7.0)")
	mustExec(t, db, "update acct set balance = 0.5 where id < 10")
	mustExec(t, db, "delete from acct where id >= 40 and id < 50")
	// The transaction reads its own uncommitted writes.
	if n := countAccounts(t, db, "id = 2000"); n != 1 {
		t.Errorf("own insert visible = %d, want 1", n)
	}
	if n := countAccounts(t, db, "balance = 0.5"); n != 10 {
		t.Errorf("own updates visible = %d, want 10", n)
	}
	if n := countAccounts(t, db, "id >= 0"); n != 41 {
		t.Errorf("rows inside txn = %d, want 41", n)
	}
	mustExec(t, db, "rollback")
	if n := countAccounts(t, db, "id >= 0"); n != 50 {
		t.Errorf("rows after rollback = %d, want 50", n)
	}
	if n := countAccounts(t, db, "balance = 0.5"); n != 0 {
		t.Errorf("rolled-back updates still visible: %d", n)
	}
	if _, err := db.Exec("commit", ExecOptions{}); err == nil {
		t.Error("COMMIT with no transaction open accepted")
	}
	// COMMIT reports the transaction's total row versions.
	mustExec(t, db, "begin")
	mustExec(t, db, "insert into acct (id, balance) values (3000, 1.0)")
	if res := mustExec(t, db, "commit"); res.RowsAffected != 1 {
		t.Errorf("commit RowsAffected = %d, want 1", res.RowsAffected)
	}
	if n := countAccounts(t, db, "id = 3000"); n != 1 {
		t.Errorf("committed insert visible = %d, want 1", n)
	}
}

func TestPreparedExecReadsASnapshot(t *testing.T) {
	db := openAccounts(t)
	prep, err := db.Prepare("select count(*) as n from acct where balance < :cap", ExecOptions{Mode: ReoptFull})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]Value{"cap": NewFloat(1e9)}
	count := func() int64 {
		t.Helper()
		res, err := prep.Exec(params)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	if n := count(); n != 50 {
		t.Fatalf("baseline count = %d, want 50", n)
	}
	// Another session's open transaction must stay invisible.
	other := db.NewSessionManager(SessionConfig{}).Session()
	ctx := context.Background()
	if _, err := other.Exec(ctx, "begin", session.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Exec(ctx, "insert into acct (id, balance) values (5000, 1.0)", session.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 50 {
		t.Errorf("prepared plan read an uncommitted insert: count = %d, want 50", n)
	}
	if _, err := other.Exec(ctx, "commit", session.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 51 {
		t.Errorf("count after commit = %d, want 51", n)
	}
}

func TestPreparedExecHonoursTimeout(t *testing.T) {
	db := openTPCD(t, 0.002, 0)
	prep, err := db.Prepare(hybridTestQuery, ExecOptions{Mode: ReoptFull, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = prep.Exec(map[string]Value{"cap": NewFloat(1e9)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if names := tempTables(db); len(names) != 0 {
		t.Errorf("temp tables left behind: %v", names)
	}
}

func tempTables(db *DB) []string {
	var names []string
	for _, name := range db.Catalog().Tables() {
		if tbl, err := db.Catalog().Table(name); err == nil && tbl.Temp {
			names = append(names, name)
		}
	}
	return names
}

// TestExecMatchesSessionManagerPath: the library and a server-style
// session handed the same private budget produce the same rows, the
// same dispatcher activity and the same simulated cost — there is one
// query path, not two that happen to agree.
func TestExecMatchesSessionManagerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-D")
	}
	db := Open(Options{BufferPoolPages: 256})
	if err := db.LoadTPCD(TPCDConfig{SF: 0.005, Seed: 1, StaleFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSessionManager(SessionConfig{}).Session()
	const budget = 2 << 20
	for _, name := range []string{"Q3", "Q5", "Q10"} {
		q := Q(name)
		db.DropCaches()
		lib, err := db.Exec(q.SQL, ExecOptions{Mode: ReoptFull, MemBudget: budget})
		if err != nil {
			t.Fatalf("%s library: %v", name, err)
		}
		db.DropCaches()
		srv, err := sess.Exec(context.Background(), q.SQL, session.Options{Mode: ReoptFull, MemBudget: budget})
		if err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		compareRows(t, name, lib.Rows, srv.Rows)
		if lib.Cost != srv.Cost {
			t.Errorf("%s: cost %.3f through DB.Exec, %.3f through the session", name, lib.Cost, srv.Cost)
		}
		a, b := lib.Stats, srv.Stats
		if a.CollectorsInserted != b.CollectorsInserted || a.Observations != b.Observations ||
			a.MemReallocs != b.MemReallocs || a.Considered() != b.Considered() ||
			a.PlanSwitches != b.PlanSwitches || a.EstimatedCost != b.EstimatedCost {
			t.Errorf("%s: stats differ:\n library %+v\n session %+v", name, *a, *b)
		}
		if a.CollectorsInserted == 0 || a.Observations == 0 {
			t.Errorf("%s: re-optimization never armed: %+v", name, *a)
		}
		if srv.Broker.Admitted != 0 {
			t.Errorf("%s: a private-budget query leased %v bytes from the broker", name, srv.Broker.Admitted)
		}
	}
}
