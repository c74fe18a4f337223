package session

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/memmgr"
	"repro/internal/reopt"
	"repro/internal/storage"
	"repro/internal/types"
)

type testDB struct {
	cat   *catalog.Catalog
	pool  *storage.BufferPool
	meter *storage.CostMeter
	// basePages, when set (markPages), is the post-load disk-page
	// baseline that checkNoResidue holds every query to.
	basePages int
}

// markPages records the disk-page baseline after loading: queries may
// allocate temp heap pages (spill partitions, materialized switches),
// but every one of them must be freed by end of query.
func (db *testDB) markPages() { db.basePages = db.pool.Disk().NumPages() }

func newTestDB(poolPages int) *testDB {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), poolPages)
	return &testDB{cat: catalog.New(pool), pool: pool, meter: m}
}

func (db *testDB) manager(cfg Config) *Manager {
	return NewManager(db.cat, db.pool, db.meter, cfg)
}

// addTable fills name(pk key, fk, grp, val) with deterministic data.
func (db *testDB) addTable(t *testing.T, name string, rows int, fkMod, grpMod int64) {
	t.Helper()
	tbl, err := db.cat.CreateTable(name, types.NewSchema(
		types.Column{Name: name + "_pk", Kind: types.KindInt, Key: true},
		types.Column{Name: name + "_fk", Kind: types.KindInt},
		types.Column{Name: name + "_grp", Kind: types.KindInt},
		types.Column{Name: name + "_val", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i) % fkMod),
			types.NewInt(int64(i) % grpMod),
			types.NewFloat(float64(i % 1000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.cat.Analyze(name, catalog.AnalyzeOptions{Family: histogram.MaxDiff}); err != nil {
		t.Fatal(err)
	}
}

func sortRows(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func rowsEqual(t *testing.T, label string, got, want []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		for j := range got[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("%s row %d col %d: %v != %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

const joinQuery = `select a_grp, count(*) as cnt from a, b
	where a.a_fk = b.b_pk and a_val < :cut group by a_grp order by a_grp`

func TestSessionExecBasic(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	s := m.Session()
	res, err := s.Exec(context.Background(), joinQuery, Options{
		Mode:   reopt.ModeFull,
		Params: map[string]types.Value{"cut": types.NewFloat(500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d groups, want 10", len(res.Rows))
	}
	if len(res.Columns) != 2 || res.Columns[0] != "a_grp" || res.Columns[1] != "cnt" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.CacheHit {
		t.Error("first execution reported a cache hit")
	}
	if res.Broker.Admitted <= 0 {
		t.Errorf("no broker admission recorded: %+v", res.Broker)
	}
	if !strings.HasPrefix(res.Query, "s1_q") {
		t.Errorf("query tag = %q", res.Query)
	}
}

func TestPlanCacheHitAcrossSessionsAndBindings(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	ctx := context.Background()

	r1, err := m.Session().Exec(ctx, joinQuery, Options{
		Params: map[string]types.Value{"cut": types.NewFloat(500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same statement, different whitespace, different binding, another
	// session: one cached plan serves it.
	r2, err := m.Session().Exec(ctx,
		"select a_grp, count(*) as cnt from a, b where a.a_fk = b.b_pk and a_val < :cut group by a_grp order by a_grp",
		Options{Params: map[string]types.Value{"cut": types.NewFloat(200)}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Errorf("cache hits: first=%t second=%t, want false/true", r1.CacheHit, r2.CacheHit)
	}
	// The cached plan still binds per execution: fewer rows survive the
	// tighter cut.
	var n1, n2 int64
	for _, r := range r1.Rows {
		n1 += r[1].Int()
	}
	for _, r := range r2.Rows {
		n2 += r[1].Int()
	}
	if n2 >= n1 {
		t.Errorf("cut=200 kept %d rows vs %d for cut=500; cached plan ignored its bindings", n2, n1)
	}
	if st := m.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestAnalyzeInvalidatesCachedPlans(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	ctx := context.Background()
	s := m.Session()
	opts := Options{Params: map[string]types.Value{"cut": types.NewFloat(500)}}

	if _, err := s.Exec(ctx, joinQuery, opts); err != nil {
		t.Fatal(err)
	}
	if err := m.Analyze("a", histogram.MaxDiff); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec(ctx, joinQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("plan cached against pre-ANALYZE statistics was served")
	}
	if st := m.CacheStats(); st.Invalidations != 1 {
		t.Errorf("cache stats = %+v, want 1 invalidation", st)
	}
}

// TestBrokeredHandoffBetweenSessions runs the §2.3 multi-query scenario
// end to end: session A's query is admitted with the whole shared pool,
// session B's query queues, and B is admitted strictly between A's
// mid-query surplus return and A's release.
func TestBrokeredHandoffBetweenSessions(t *testing.T) {
	db := newTestDB(4096)
	// Figure 3's shape: the host-var filter on rel1 is over-estimated
	// 2x, so A's re-allocation shrinks demands and returns the surplus.
	// Sized, at two emitted columns a scan, so that A's estimated
	// demands still swallow the pool.
	db.addTable(t, "rel1", 60000, 30000, 25)
	db.addTable(t, "rel2", 30000, 40000, 5)
	db.addTable(t, "rel3", 40000, 5, 5)
	// Small tables for B: a real join, tiny memory minimum.
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)

	const pool = 1 << 20
	m := db.manager(Config{MemPoolBytes: pool, MemBudget: pool})

	var mu sync.Mutex
	var events []memmgr.Event
	queued := make(chan string, 16)
	m.Broker().SetTrace(func(ev memmgr.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		if ev.Kind == "queue" {
			queued <- ev.Query
		}
	})

	// A filler lease holds the whole pool so both queries queue in a
	// known order; releasing it admits A (whose demand swallows the
	// pool) and leaves B waiting on A's mid-query return.
	ctx := context.Background()
	filler, err := m.Broker().Admit(ctx, "filler", pool, pool)
	if err != nil {
		t.Fatal(err)
	}

	aDone := make(chan *Result, 1)
	go func() {
		r, err := m.Session().Exec(ctx, `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
			where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
			and rel1_val < :cut group by rel1_grp`, Options{
			Mode:   reopt.ModeMemoryOnly,
			Params: map[string]types.Value{"cut": types.NewFloat(150)},
		})
		if err != nil {
			t.Error(err)
		}
		aDone <- r
	}()
	tagA := <-queued

	bDone := make(chan *Result, 1)
	go func() {
		r, err := m.Session().Exec(ctx, joinQuery, Options{
			Params: map[string]types.Value{"cut": types.NewFloat(500)},
		})
		if err != nil {
			t.Error(err)
		}
		bDone <- r
	}()
	<-queued // B is in line behind A
	filler.Release()

	resA := <-aDone
	resB := <-bDone
	if resA == nil || resB == nil {
		t.Fatal("a query failed")
	}
	if resA.Broker.Returns == 0 {
		t.Fatal("A never returned surplus to the broker")
	}
	if !resB.Broker.Waited {
		t.Error("B's admission did not queue")
	}

	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, ev := range events {
		key := ev.Kind + " " + ev.Query
		if _, ok := idx[key]; !ok {
			idx[key] = i
		}
	}
	retA := idx["return "+tagA]
	admB := idx["admit "+resB.Query]
	relA := idx["release "+tagA]
	if !(retA < admB && admB < relA) {
		t.Errorf("B admitted outside A's return window: return@%d admit@%d release@%d\n%v",
			retA, admB, relA, events)
	}
}

// TestConcurrentSessions drives 16 goroutines of mixed queries through
// one manager; under -race this is the engine-wide thread-safety test at
// the session layer.
func TestConcurrentSessions(t *testing.T) {
	db := newTestDB(2048)
	db.addTable(t, "a", 3000, 150, 10)
	db.addTable(t, "b", 150, 15, 5)
	db.addTable(t, "c", 15, 5, 5)
	db.cat.CreateIndex("b", "b_pk")
	m := db.manager(Config{MemPoolBytes: 8 << 20, MemBudget: 4 << 20})

	queries := []string{
		joinQuery,
		`select a_grp, count(*) as cnt from a, b, c
			where a.a_fk = b.b_pk and b.b_fk = c.c_pk and a_val < :cut group by a_grp`,
		`select b_grp, avg(b_val) as av from b where b_val < :cut group by b_grp`,
	}
	modes := []reopt.Mode{reopt.ModeOff, reopt.ModeMemoryOnly, reopt.ModeFull}

	want := make([][]types.Tuple, len(queries))
	for i, q := range queries {
		r, err := m.Session().Exec(context.Background(), q, Options{
			Params: map[string]types.Value{"cut": types.NewFloat(700)},
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Rows
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := m.Session()
			for i := 0; i < 6; i++ {
				qi := (g + i) % len(queries)
				r, err := s.Exec(context.Background(), queries[qi], Options{
					Mode:   modes[(g+i)%len(modes)],
					Params: map[string]types.Value{"cut": types.NewFloat(700)},
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				rowsEqual(t, "concurrent", r.Rows, want[qi])
			}
		}(g)
	}
	wg.Wait()

	if st := m.Broker().Stats(); st.AvailBytes != st.PoolBytes {
		t.Errorf("broker leaked: %.0f of %.0f available after drain", st.AvailBytes, st.PoolBytes)
	}
	if st := m.CacheStats(); st.Hits == 0 {
		t.Errorf("no plan-cache hits across 96 executions: %+v", st)
	}
}
