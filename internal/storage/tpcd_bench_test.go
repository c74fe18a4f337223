package storage_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

var sinkTuple types.Tuple

// BenchmarkHeapScanTPCD is BenchmarkHeapScan over the engine's own
// lineitem — twelve columns, loaded by internal/tpcd — under the two
// scans the TPC-D workload makes of it with nothing else in the plan:
// Q1's, whose filter on l_shipdate passes about 98 % of the rows and
// whose projection reaches column 9, and Q6's three-term filter (a date
// range, a discount BETWEEN, a quantity bound) ahead of one projected
// column. The filters are the queries' own WHERE clauses compiled as
// SeqScan.Open compiles them, the projections the optimizer's, and both
// scans are lent, as under the aggregate each feeds. ns and allocations
// are per tuple examined. It lives outside package storage because the
// loader needs the catalog, which imports it.
func BenchmarkHeapScanTPCD(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewDisk(storage.NewCostMeter(storage.DefaultCostWeights())), 1024)
	cat := catalog.New(pool)
	if err := tpcd.Load(cat, tpcd.Config{SF: 0.005}); err != nil {
		b.Fatal(err)
	}
	li, err := cat.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	n := int(li.Heap.NumTuples())
	for _, q := range []struct {
		name string
		cols []int
	}{
		{"Q1", []int{4, 5, 6, 8, 9}}, // l_quantity .. l_discount, l_returnflag, l_linestatus
		{"Q6", []int{5}},             // l_extendedprice
	} {
		query, err := tpcd.ByName(q.name)
		if err != nil {
			b.Fatal(err)
		}
		stmt, err := sql.Parse(query.SQL)
		if err != nil {
			b.Fatal(err)
		}
		preds := make([]plan.Pred, len(stmt.Where))
		for i, p := range stmt.Where {
			if preds[i], err = plan.BindPred(p, li.Schema); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				s := li.Heap.Scan().WithFilter(plan.CompileFilter(preds, nil)).WithColumns(q.cols).Lend()
				for s.Next() {
					sinkTuple = s.Tuple()
				}
				if s.Err() != nil {
					b.Fatal(s.Err())
				}
			}
		})
	}
}
