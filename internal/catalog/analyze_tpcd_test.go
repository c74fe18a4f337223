package catalog_test

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// ANALYZE gathers a table's values by column ordinal into presized
// slices; the statistics it publishes are those of the plain way to do
// it — one growing slice per column behind a map — bit for bit, on every
// column of the TPC-D load.
func TestAnalyzeMatchesReferenceOnTPCD(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewDisk(storage.NewCostMeter(storage.DefaultCostWeights())), 4096)
	cat := catalog.New(pool)
	if err := tpcd.Load(cat, tpcd.Config{SF: 0.002}); err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.Tables() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[int][]types.Value{}
		nulls := map[int]float64{}
		widths := map[int]float64{}
		var count, bytes float64
		s := tbl.Heap.Scan()
		for s.Next() {
			tup := s.Tuple()
			count++
			bytes += float64(types.EncodedSize(tup))
			for col, v := range tup {
				widths[col] += float64(v.EncodedSize())
				if v.IsNull() {
					nulls[col]++
					continue
				}
				vals[col] = append(vals[col], v)
			}
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		if count == 0 {
			t.Fatalf("%s is empty", name)
		}
		if tbl.Cardinality != count || tbl.AvgTupleBytes != bytes/count {
			t.Errorf("%s: cardinality %v, %v bytes a tuple; want %v, %v", name, tbl.Cardinality, tbl.AvgTupleBytes, count, bytes/count)
		}
		for col, c := range tbl.Schema.Columns {
			cs := tbl.ColStat(col)
			if cs == nil {
				t.Fatalf("%s.%s has no statistics", name, c.Name)
			}
			vs := vals[col]
			mn, mx := vs[0], vs[0]
			for _, v := range vs[1:] {
				if v.Compare(mn) < 0 {
					mn = v
				}
				if v.Compare(mx) > 0 {
					mx = v
				}
			}
			h := histogram.Build(histogram.MaxDiff, vs, 20, 0)
			sk := sketch.NewHybridDistinct(4096, 64)
			for _, v := range vs {
				sk.Add(v)
			}
			switch {
			case cs.NullFrac != nulls[col]/count, cs.AvgWidth != widths[col]/count:
				t.Errorf("%s.%s: null fraction %v, width %v; want %v, %v", name, c.Name, cs.NullFrac, cs.AvgWidth, nulls[col]/count, widths[col]/count)
			case !cs.Min.Equal(mn) || !cs.Max.Equal(mx):
				t.Errorf("%s.%s: range [%v, %v], want [%v, %v]", name, c.Name, cs.Min, cs.Max, mn, mx)
			case cs.Distinct != h.TotalDistinct || !reflect.DeepEqual(cs.Hist, h):
				t.Errorf("%s.%s: histogram %v (%v distinct), want %v (%v)", name, c.Name, cs.Hist, cs.Distinct, h, h.TotalDistinct)
			case cs.Sketch.Estimate() != sk.Estimate():
				t.Errorf("%s.%s: sketch estimates %v distinct, want %v", name, c.Name, cs.Sketch.Estimate(), sk.Estimate())
			}
		}
	}
}
