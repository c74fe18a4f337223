package session

import (
	"context"
	"testing"

	"repro/internal/reopt"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// nationRegionSQL is the benchmark module's lookup.nation_region
// statement: a two-table join a warm plan cache serves on every run.
const nationRegionSQL = `select n_name, r_name from nation, region
where nation.n_regionkey = region.r_regionkey and r_name = :r`

// BenchmarkSessionCachedLookup runs lookup.nation_region through
// Session.Exec with a warm plan cache: the front door's cost on a hit,
// without the HTTP and JSON around it.
func BenchmarkSessionCachedLookup(b *testing.B) {
	db := newTestDB(2048)
	if err := tpcd.Load(db.cat, tpcd.Config{SF: 0.002, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	s := db.manager(Config{}).Session()
	opts := Options{Mode: reopt.ModeFull, Params: map[string]types.Value{"r": types.NewString("ASIA")}}
	if _, err := s.Exec(context.Background(), nationRegionSQL, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(context.Background(), nationRegionSQL, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit || len(res.Rows) == 0 {
			b.Fatalf("hit=%v rows=%d: want a cache hit with rows", res.CacheHit, len(res.Rows))
		}
	}
}
