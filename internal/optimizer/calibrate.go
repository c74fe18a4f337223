package optimizer

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// OptCostPerPlan converts "plans considered" by the DP enumerator into
// simulated cost units. At 0.1 units (≈ one tenth of a page I/O) per
// transition, optimizing a 6-join query costs a few tens of units —
// matching the paper's observation that optimization time is dominated
// by join-order enumeration and is non-trivial but far below the cost of
// a complex query.
const OptCostPerPlan = 0.1

// maxCalibJoins is the largest join count OptTime calibrates; larger
// queries are charged as this many.
const maxCalibJoins = 8

// optTimes[n] is T_opt,estimated(n), calibrated on first use. Following
// §2.4 it is measured by optimizing a synthetic star join of n joins —
// the worst case for a given join count — and is stable for a given
// optimizer, so one process measures each n once.
var optTimes = func() (t [maxCalibJoins + 1]func() float64) {
	for n := range t {
		t[n] = sync.OnceValue(func() float64 { return calibrateStar(n) })
	}
	return t
}()

// OptTime returns the estimated optimization cost for a query with n
// joins (n+1 relations), in simulated units.
func OptTime(n int) float64 {
	return optTimes[min(max(n, 1), maxCalibJoins)]()
}

// calibrateStar optimizes a synthetic star join of n joins and returns
// its enumeration cost.
func calibrateStar(n int) float64 {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(m), 16))
	// Fact table f(d0, d1, ..., dn-1); dimension tables di(k).
	factCols := make([]types.Column, n)
	for i := range factCols {
		factCols[i] = types.Column{Name: fmt.Sprintf("d%d", i), Kind: types.KindInt}
	}
	fact, err := cat.CreateTable("calib_fact", types.NewSchema(factCols...))
	if err != nil {
		panic("optimizer: calibration catalog: " + err.Error())
	}
	fact.Cardinality = 1e6
	fact.AvgTupleBytes = 100
	where := ""
	for i := 0; i < n; i++ {
		dim, err := cat.CreateTable(fmt.Sprintf("calib_dim%d", i), types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt, Key: true},
		))
		if err != nil {
			panic("optimizer: calibration catalog: " + err.Error())
		}
		dim.Cardinality = 1e3
		dim.AvgTupleBytes = 50
		if i > 0 {
			where += " and "
		}
		where += fmt.Sprintf("calib_fact.d%d = calib_dim%d.k", i, i)
	}
	src := "select calib_fact.d0 from calib_fact"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(", calib_dim%d", i)
	}
	src += " where " + where
	stmt, err := sql.Parse(src)
	if err != nil {
		panic("optimizer: calibration query: " + err.Error())
	}
	q, err := Analyze(cat, stmt)
	if err != nil {
		panic("optimizer: calibration analyze: " + err.Error())
	}
	o := &Optimizer{Weights: storage.DefaultCostWeights()}
	if _, err := o.Optimize(q); err != nil {
		panic("optimizer: calibration optimize: " + err.Error())
	}
	return float64(o.PlansConsidered) * OptCostPerPlan
}
