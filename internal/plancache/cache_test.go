package plancache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

type env struct {
	cat  *catalog.Catalog
	pool *storage.BufferPool
}

func newEnv(t *testing.T) *env {
	t.Helper()
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), 512)
	cat := catalog.New(pool)
	for _, spec := range []struct {
		name string
		rows int
	}{{"t1", 400}, {"t2", 100}} {
		tbl, err := cat.CreateTable(spec.name, types.NewSchema(
			types.Column{Name: spec.name + "_pk", Kind: types.KindInt, Key: true},
			types.Column{Name: spec.name + "_fk", Kind: types.KindInt},
			types.Column{Name: spec.name + "_val", Kind: types.KindFloat},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.rows; i++ {
			if err := tbl.Insert(types.Tuple{
				types.NewInt(int64(i)),
				types.NewInt(int64(i % 100)),
				types.NewFloat(float64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.Analyze(spec.name, catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
			t.Fatal(err)
		}
	}
	return &env{cat: cat, pool: pool}
}

func (e *env) optimize(t *testing.T, src string) (*sql.SelectStmt, *optimizer.Result) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := optimizer.Analyze(e.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	opt := &optimizer.Optimizer{Weights: storage.DefaultCostWeights(), MemBudget: 32 << 20}
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt, res
}

const paramQuery = `select t1_val from t1, t2
	where t1.t1_fk = t2.t2_pk and t1_val < :cut`

func TestHitOnResubmittedParameterizedSQL(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	key := Key(stmt, "fp")
	if c.Get(key) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, res)

	// Re-submission with different whitespace normalizes to the same key.
	stmt2, _ := e.optimize(t, "select t1_val from t1, t2 where t1.t1_fk = t2.t2_pk and t1_val < :cut")
	if Key(stmt2, "fp") != key {
		t.Fatalf("normalized keys differ:\n%s\n%s", Key(stmt2, "fp"), key)
	}
	got := c.Get(key)
	if got == nil {
		t.Fatal("miss on re-submitted SQL")
	}
	if got == res || got.Root == res.Root {
		t.Fatal("cache returned the stored plan itself, not a clone")
	}
	if obs.FormatPlan(got.Root) != obs.FormatPlan(res.Root) {
		t.Errorf("cloned plan differs:\n%s\nvs\n%s", obs.FormatPlan(got.Root), obs.FormatPlan(res.Root))
	}
	// Mutating the clone (as execution does) must not poison the cache.
	got.Root.Est().Rows = -1
	again := c.Get(key)
	if again.Root.Est().Rows == -1 {
		t.Error("executing a hit mutated the cached plan")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits 1 miss", st)
	}
}

func TestDifferentFingerprintsDoNotShare(t *testing.T) {
	e := newEnv(t)
	stmt, _ := e.optimize(t, paramQuery)
	if Key(stmt, "mem=1048576") == Key(stmt, "mem=2097152") {
		t.Error("different optimizer fingerprints share a key")
	}
}

func TestHostVarSignatureInKey(t *testing.T) {
	e := newEnv(t)
	stmt, _ := e.optimize(t, paramQuery)
	vars := HostVars(stmt)
	if len(vars) != 1 || vars[0] != "cut" {
		t.Errorf("HostVars = %v, want [cut]", vars)
	}
	stmt2, _ := e.optimize(t, `select t1_val from t1, t2
		where t1.t1_fk = t2.t2_pk and t1_val < 5`)
	if len(HostVars(stmt2)) != 0 {
		t.Errorf("literal query has host vars: %v", HostVars(stmt2))
	}
}

func TestMissAfterCatalogStatsChange(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	key := Key(stmt, "fp")
	c.Put(key, res)
	if c.Get(key) == nil {
		t.Fatal("warm entry missed")
	}

	// ANALYZE bumps the statistics version: the entry is now stale.
	if err := e.cat.Analyze("t1", catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
		t.Fatal(err)
	}
	if c.Get(key) != nil {
		t.Fatal("hit on a plan optimized against stale statistics")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 invalidation and 0 entries", st)
	}

	// Re-populated under the new version, it serves hits again.
	c.Put(key, res)
	if c.Get(key) == nil {
		t.Error("miss after re-population")
	}
}

func TestTempTablesDoNotInvalidate(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	key := Key(stmt, "fp")
	c.Put(key, res)

	// A mid-query materialization registers and drops a temp table;
	// the cache must survive it or every plan switch flushes it.
	heap := storage.NewHeapFile(e.pool)
	if _, err := e.cat.RegisterTemp("mqr_temp_x_1", types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt}), heap); err != nil {
		t.Fatal(err)
	}
	if err := e.cat.DropTable("mqr_temp_x_1"); err != nil {
		t.Fatal(err)
	}
	if c.Get(key) == nil {
		t.Error("temp-table churn invalidated the plan cache")
	}
}

func TestLRUEviction(t *testing.T) {
	e := newEnv(t)
	c := New(2, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	c.Put("k1", res)
	c.Put("k2", res)
	if c.Get("k1") == nil { // k1 now most recent
		t.Fatal("k1 missing")
	}
	c.Put("k3", res) // evicts k2
	if c.Get("k2") != nil {
		t.Error("LRU evicted the wrong entry")
	}
	if c.Get("k1") == nil || c.Get("k3") == nil {
		t.Error("recently-used entries evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	_ = stmt
}

// TestConcurrentGetPut races gets, puts, and invalidating ANALYZEs; run
// under -race this is the cache's thread-safety regression test.
func TestConcurrentGetPut(t *testing.T) {
	e := newEnv(t)
	c := New(8, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	_ = stmt
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%4)
			for i := 0; i < 200; i++ {
				if got := c.Get(key); got == nil {
					c.Put(key, res)
				} else {
					// Execution-style mutation of the clone.
					got.Root.Est().Rows += 1
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stress saw no traffic: %+v", st)
	}
}

// TestScopedInvalidation is the per-table invalidation contract: a write
// transaction committing against t2 invalidates only cached plans that
// reference t2, leaving a t1-only plan live.
func TestScopedInvalidation(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)

	t1Stmt, t1Res := e.optimize(t, "select t1_val from t1 where t1_pk < 10")
	t1Key := Key(t1Stmt, "fp")
	c.Put(t1Key, t1Res)

	joinStmt, joinRes := e.optimize(t, paramQuery)
	joinKey := Key(joinStmt, "fp")
	c.Put(joinKey, joinRes)

	// Commit a write to t2 only.
	t2, err := e.cat.Table("t2")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.cat.BeginTxn()
	if err := tx.Insert(t2, types.Tuple{
		types.NewInt(10_000), types.NewInt(0), types.NewFloat(1),
	}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	if got := c.Get(t1Key); got == nil {
		t.Error("t1-only plan was invalidated by a write to t2")
	}
	if got := c.Get(joinKey); got != nil {
		t.Error("plan referencing t2 survived a write to t2")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
}

// A plan stored under the versions read before it was planned misses
// once a commit lands while the optimizer runs, however the catalog
// looks when PutAt is called.
func TestEntryStoredUnderOlderVersionsMisses(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, _ := e.optimize(t, paramQuery)
	vers := c.Versions(stmt)

	// The commit lands between reading the versions and storing the plan.
	t1, err := e.cat.Table("t1")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.cat.BeginTxn()
	if err := tx.Insert(t1, types.Tuple{types.NewInt(10_000), types.NewInt(0), types.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	_, res := e.optimize(t, paramQuery)
	key := Key(stmt, "fp")
	c.PutAt(key, res, vers)
	if c.Get(key) != nil {
		t.Fatal("a plan stored under versions older than the catalog's was served")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
}

// Replace swaps only the entry its Ticket names, keeps that entry's
// versions, and carries the overlay to every clone.
func TestReplaceIsCompareAndSwap(t *testing.T) {
	e := newEnv(t)
	c := New(16, e.cat.SchemaVersion, e.cat.TableVersion)
	stmt, res := e.optimize(t, paramQuery)
	key := Key(stmt, "fp")
	stored := c.PutAt(key, res, c.Versions(stmt))
	_, served := c.Lookup(key)
	if served != stored {
		t.Fatal("Lookup's Ticket does not name the entry PutAt stored")
	}

	if !c.Current(served) {
		t.Fatal("a fresh entry's Ticket is not current")
	}
	learned := *res
	learned.Overlay = optimizer.Overlay{1: 7}
	if !c.Replace(served, &learned) {
		t.Fatal("Replace on the entry the plan was served from did nothing")
	}
	got, now := c.Lookup(key)
	if got == nil || got.Overlay[1] != 7 {
		t.Fatalf("the replaced entry serves overlay %v, want map[1:7]", got.Overlay)
	}
	// The ticket the first run held names an entry that is gone.
	if c.Current(served) {
		t.Error("the Ticket of a replaced entry is current")
	}
	if c.Replace(served, res) {
		t.Error("Replace through a stale Ticket swapped the entry")
	}
	if got := c.Get(key); got.Overlay[1] != 7 {
		t.Error("a no-op Replace changed the cached plan")
	}
	if c.Replace(Ticket{}, res) {
		t.Error("Replace through the zero Ticket swapped an entry")
	}
	if st := c.Stats(); st.Feedbacks != 1 {
		t.Errorf("Feedbacks = %d, want 1", st.Feedbacks)
	}

	// The replacement kept the versions of the entry it replaced: a
	// commit on t2 drops plan and overlay together.
	t2, err := e.cat.Table("t2")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.cat.BeginTxn()
	if err := tx.Insert(t2, types.Tuple{types.NewInt(10_000), types.NewInt(0), types.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if c.Current(now) {
		t.Error("an entry is current after a commit on a table it reads")
	}
	if c.Get(key) != nil {
		t.Error("a replaced entry outlived a commit on a table it reads")
	}
	if c.Replace(now, &learned) {
		t.Error("Replace revived a dropped entry")
	}
}
