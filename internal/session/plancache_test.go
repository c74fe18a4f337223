package session

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/reopt"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// TestCacheHitMatchesMiss: a plan-cache hit — no parse, no render, the
// SCIA's tree and trace and the progress layout taken from the entry —
// runs exactly what the run that stored the entry ran. Both runs share
// one snapshot (an explicit transaction, which also keeps the entry from
// learning) over a pool the same statement warmed, so every charge
// repeats: rows, cost, decisions, collectors, the progress layout and
// the trace must all be equal.
func TestCacheHitMatchesMiss(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	type stmt struct {
		name, sql string
		params    map[string]types.Value
	}
	stmts := []stmt{
		{"lookup.nation_region", nationRegionSQL, map[string]types.Value{"r": types.NewString("ASIA")}},
		{"lookup.supplier_top", `select s_suppkey, s_name, s_acctbal from supplier
where s_nationkey = :n order by s_acctbal desc limit 5`, map[string]types.Value{"n": types.NewInt(7)}},
		{"lookup.nation_count", `select n_regionkey, count(*) as nations from nation
where n_nationkey >= :k group by n_regionkey`, map[string]types.Value{"k": types.NewInt(5)}},
		{"lookup.supplier_nation", `select s_name, n_name from supplier, nation
where supplier.s_nationkey = nation.n_nationkey and s_acctbal > :b`, map[string]types.Value{"b": types.NewFloat(8000)}},
		{"join4", `select c_name, s_name, n_name, r_name from customer, supplier, nation, region
where customer.c_nationkey = supplier.s_nationkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and c_custkey = :c`, map[string]types.Value{"c": types.NewInt(7)}},
	}
	for _, name := range []string{"Q3", "Q5", "Q8"} {
		q, err := tpcd.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, stmt{name: name, sql: q.SQL})
	}
	ctx := context.Background()
	for _, st := range stmts {
		t.Run(st.name, func(t *testing.T) {
			s := m.Session()
			opts := Options{Mode: reopt.ModeFull, Params: st.params, Trace: true}
			warm := opts
			warm.NoCache = true
			cold, err := s.Exec(ctx, st.sql, warm)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(ctx, "begin", Options{}); err != nil {
				t.Fatal(err)
			}
			defer s.Exec(ctx, "rollback", Options{})
			miss, err := s.Exec(ctx, st.sql, opts)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := s.Exec(ctx, st.sql, opts)
			if err != nil {
				t.Fatal(err)
			}
			if miss.CacheHit || !hit.CacheHit {
				t.Fatalf("cache hits: first=%t second=%t, want false/true", miss.CacheHit, hit.CacheHit)
			}
			if !reflect.DeepEqual(miss.Rows, hit.Rows) {
				t.Errorf("rows differ: miss %d rows, hit %d rows", len(miss.Rows), len(hit.Rows))
			}
			if miss.Cost != hit.Cost {
				t.Errorf("cost: miss %v, hit %v", miss.Cost, hit.Cost)
			}
			if !reflect.DeepEqual(miss.Stats.Decisions, hit.Stats.Decisions) {
				t.Errorf("decisions differ:\nmiss %+v\nhit  %+v", miss.Stats.Decisions, hit.Stats.Decisions)
			}
			if miss.Stats.CollectorsInserted != hit.Stats.CollectorsInserted {
				t.Errorf("collectors: miss %d, hit %d", miss.Stats.CollectorsInserted, hit.Stats.CollectorsInserted)
			}
			// The layout names every collector's spec (its Detail); the
			// trace's collector reports carry their IDs. A run that bypasses
			// the cache describes every node itself.
			if cl, ml := layout(t, m, cold), layout(t, m, miss); !reflect.DeepEqual(cl, ml) {
				t.Errorf("progress layout differs from an uncached run's:\nuncached %v\nmiss     %v", cl, ml)
			}
			if ml, hl := layout(t, m, miss), layout(t, m, hit); !reflect.DeepEqual(ml, hl) {
				t.Errorf("progress layout differs:\nmiss %v\nhit  %v", ml, hl)
			}
			if mt, ht := traceOf(miss), traceOf(hit); !reflect.DeepEqual(mt, ht) {
				t.Errorf("trace differs:\nmiss %v\nhit  %v", mt, ht)
			}
		})
	}
}

// layout returns a finished query's progress record: its text and, per
// operator, what it shows of itself and its estimates.
func layout(t *testing.T, m *Manager, r *Result) []string {
	t.Helper()
	p := m.Progress().Get(r.Query)
	if p == nil {
		t.Fatalf("no progress record for %s", r.Query)
	}
	snap := p.Snapshot(true)
	out := []string{snap.SQL, fmt.Sprint(snap.EstCost)}
	for _, o := range snap.Operators {
		out = append(out, fmt.Sprintf("%d %d %s [%s] est=%v rows=%d", o.ID, o.Depth, o.Label, o.Detail, o.EstRows, o.Rows))
	}
	return out
}

// traceOf returns a query's trace events without their sequence numbers
// and query tag.
func traceOf(r *Result) []obs.Event {
	out := make([]obs.Event, len(r.Trace))
	for i, e := range r.Trace {
		out[i] = obs.Event{Kind: e.Kind, Msg: e.Msg, Attrs: e.Attrs}
	}
	return out
}

// TestCacheAliasHygiene: the plan cache indexes SELECT text alone, under
// every whitespace variant that names one entry, and an alias goes with
// its entry.
func TestCacheAliasHygiene(t *testing.T) {
	ctx := context.Background()
	// run gives each case a manager of its own and an Exec that fails the
	// test on error.
	run := func(t *testing.T) (*Manager, func(src string) *Result) {
		db := newTestDB(256)
		db.addTable(t, "r", 200, 10, 5)
		m := db.manager(Config{})
		s := m.Session()
		return m, func(src string) *Result {
			t.Helper()
			res, err := s.Exec(ctx, src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}

	t.Run("whitespace variants share one entry", func(t *testing.T) {
		m, exec := run(t)
		a, b := "select r_grp, count(*) as n from r group by r_grp", "select  r_grp,count(*) as n\nfrom r  group by r_grp"
		hits := []bool{exec(a).CacheHit, exec(b).CacheHit, exec(a).CacheHit, exec(b).CacheHit}
		if !reflect.DeepEqual(hits, []bool{false, true, true, true}) {
			t.Errorf("cache hits %v, want [false true true true]", hits)
		}
		if st := m.CacheStats(); st.Entries != 1 || st.Aliases != 2 {
			t.Errorf("cache holds %d entries and %d aliases, want 1 and 2", st.Entries, st.Aliases)
		}
	})

	t.Run("DML text is never indexed", func(t *testing.T) {
		m, exec := run(t)
		for i := range 3 {
			exec(fmt.Sprintf("update r set r_val = %d.5 where r_pk = 1", i))
			exec(fmt.Sprintf("insert into r (r_pk, r_fk, r_grp, r_val) values (%d, 1, 1, 1.5)", 1000+i))
			exec("delete from r where r_pk = 100000")
		}
		if st := m.CacheStats(); st.Entries != 0 || st.Aliases != 0 {
			t.Errorf("DML reached the cache: %+v", st)
		}
	})

	t.Run("aliases go with their entry", func(t *testing.T) {
		m, exec := run(t)
		const sel = "select r_pk from r where r_pk >= 1000"
		for i := range 100 {
			// A new variant every round, whose entry the round's commit
			// makes stale: unless an entry's aliases are dropped with it,
			// the index holds one per round.
			src := sel + strings.Repeat(" ", i)
			exec(src)
			if !exec(src).CacheHit {
				t.Fatalf("round %d: the repeated text missed", i)
			}
			exec(fmt.Sprintf("insert into r (r_pk, r_fk, r_grp, r_val) values (%d, 1, 1, 1.5)", 1000+i))
		}
		if exec(sel).CacheHit {
			t.Fatal("a plan of statistics a commit moved was served")
		}
		st := m.CacheStats()
		if st.Entries != 1 || st.Aliases != 1 || st.Invalidations != 100 {
			t.Errorf("after 100 invalidations the cache holds %d entries and %d aliases (%d invalidations), want 1, 1 and 100",
				st.Entries, st.Aliases, st.Invalidations)
		}
	})
}
