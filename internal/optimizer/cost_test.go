package optimizer

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
)

func TestIndexJoinCostClusteringAware(t *testing.T) {
	w := storage.DefaultCostWeights()
	const (
		outer   = 1000.0
		matches = 4.0
		out     = 4000.0
		pages   = 500.0
		rows    = 50000.0
		pool    = 256.0
	)
	o := &Optimizer{Weights: w, PoolPages: pool}
	random := o.indexJoinSelf(outer, matches, out, pages, rows, 0)
	clustered := o.indexJoinSelf(outer, matches, out, pages, rows, 1)
	if clustered >= random {
		t.Errorf("clustered cost %g not below random %g", clustered, random)
	}
	// Clustered fetch I/O ~ pages touched, far below one read per fetch.
	probesAndCPU := outer*w.PageRead + (outer+out)*w.TupleCPU
	clusteredIO := clustered - probesAndCPU
	if clusteredIO > outer*matches*pages/rows+2 {
		t.Errorf("clustered fetch I/O = %g, want ~%g", clusteredIO, outer*matches*pages/rows)
	}
	// A half-clustered index lands between.
	mid := o.indexJoinSelf(outer, matches, out, pages, rows, 0.5)
	if !(clustered < mid && mid < random) {
		t.Errorf("blend not monotone: %g / %g / %g", clustered, mid, random)
	}
}

func TestIndexJoinCostCacheAware(t *testing.T) {
	w := storage.DefaultCostWeights()
	// Random access with many more fetches than table pages: a big pool
	// absorbs re-touches, a tiny pool does not.
	bigPool := (&Optimizer{Weights: w, PoolPages: 500}).indexJoinSelf(10000, 4, 40000, 500, 50000, 0)
	tinyPool := (&Optimizer{Weights: w, PoolPages: 10}).indexJoinSelf(10000, 4, 40000, 500, 50000, 0)
	if bigPool >= tinyPool {
		t.Errorf("pool-resident cost %g not below thrashing cost %g", bigPool, tinyPool)
	}
	// With the whole table resident, misses cap near the table size.
	probesAndCPU := 10000*w.PageRead + (10000+40000)*w.TupleCPU
	if io := bigPool - probesAndCPU; io > 600 {
		t.Errorf("resident-table fetch I/O = %g, want ~500 (one pass)", io)
	}
}

func TestHashJoinSpillCostSymmetry(t *testing.T) {
	w := storage.DefaultCostWeights()
	o := &Optimizer{Weights: w}
	inMem := o.hashJoinSelf(1000, 1<<20, 5000, 4<<20, 5000, 8<<20)
	spill := o.hashJoinSelf(1000, 1<<20, 5000, 4<<20, 5000, 64<<10)
	if spill <= inMem {
		t.Errorf("spilling grant not more expensive: %g vs %g", spill, inMem)
	}
	// The spill penalty is the partitioning pass over both inputs.
	pages := (1<<20 + 4<<20) / float64(storage.PageSize)
	wantDelta := pages * (w.PageRead + w.PageWrite)
	if d := spill - inMem; d < wantDelta*0.9 || d > wantDelta*1.3 {
		t.Errorf("spill delta = %g, want ~%g", d, wantDelta)
	}
	if !spills(1<<20, 64<<10) {
		t.Error("spills(1MB build, 64KB grant) = false")
	}
	if spills(1<<20, 8<<20) {
		t.Error("spills(1MB build, 8MB grant) = true")
	}
}

func TestMemDemandFloors(t *testing.T) {
	mn, mx := joinMemDemands(0) // zero-row estimate
	if mx < 64<<10 {
		t.Errorf("MemMax = %g, want floored at 64KB", mx)
	}
	if mn > mx {
		t.Error("MemMin > MemMax")
	}
	mn, mx = stepMemDemands(10)
	if mx < 64<<10 || mn > mx {
		t.Errorf("step demands = %g/%g", mn, mx)
	}
}

func TestHostVarScenarioChangesLeafEstimate(t *testing.T) {
	f := newFixture(t)
	stmt, _ := sql.Parse("select o_id from orders where o_price < :cut")
	for _, sc := range []float64{0.01, 0.5, 1.0} {
		q, _ := Analyze(f.cat, stmt)
		o := &Optimizer{Weights: storage.DefaultCostWeights(), HostVarSelectivity: sc}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Root.Est().Rows / 20000
		if got < sc*0.9 || got > sc*1.1 {
			t.Errorf("scenario %g: leaf selectivity = %g", sc, got)
		}
	}
}

func TestQueryLocalSelectivity(t *testing.T) {
	f := newFixture(t)
	stmt, _ := sql.Parse("select o_id from orders where o_status = 3")
	q, _ := Analyze(f.cat, stmt)
	// Literal predicate: MaxDiff on 10 distinct values is near-exact.
	sel := q.LocalSelectivity(0, stmt.Where[0])
	if sel < 0.08 || sel > 0.12 {
		t.Errorf("LocalSelectivity = %g, want ~0.1", sel)
	}
	if got := q.LocalSelectivity(99, stmt.Where[0]); got <= 0 || got > 1 {
		t.Errorf("out-of-range relation selectivity = %g", got)
	}
}
