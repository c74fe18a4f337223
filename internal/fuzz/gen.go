// Package fuzz is the engine's differential fuzzing harness: a
// deterministic, seed-driven generator of random schemas, data, and
// chain-join queries (factored out of the original oracle test), an
// independent naive reference evaluator, and a runner that executes
// every generated case across the engine's configuration matrix —
// serial and parallel degrees, re-optimization off/on/forced, spill-
// forcing memory budgets, plan-cache cold/warm, injected cancellation,
// and every named fault-injection site — checking each run against the
// reference answer and the engine's cleanup invariants.
//
// Everything derives from int64 seeds, so any failure is replayable
// from a tiny JSON seed file (see Failure and Shrink).
package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/storage"
	"repro/internal/types"
)

// Case is the replayable description of one fuzz case. The schema,
// data, and query all derive deterministically from these few fields,
// which is exactly what makes shrinking work: each field can be
// reduced independently while the rest of the case stays stable.
type Case struct {
	// Seed drives every random choice inside the case (row values,
	// domains, filters, histogram families).
	Seed int64 `json:"seed"`
	// NTables is the number of generated tables t0..t{n-1}.
	NTables int `json:"n_tables"`
	// MaxRows bounds each table's row count (actual counts are drawn
	// per table in [20, MaxRows]).
	MaxRows int `json:"max_rows"`
	// JoinK is the chain-join length (first JoinK tables).
	JoinK int `json:"join_k"`
	// Grouped selects the aggregate projection (group by + count/sum)
	// over the plain two-column projection.
	Grouped bool `json:"grouped"`
	// GroupPK groups by t0's primary key instead of its ~10-value grp
	// column, making one group per surviving row — the shape that
	// pushes aggregation state past its memory grant into spilled
	// partitions.
	GroupPK bool `json:"group_pk,omitempty"`
	// HostVar turns t0's value filter into a :cut host variable, the
	// unknowable-selectivity trigger for mid-query re-optimization.
	HostVar bool `json:"host_var"`
	// StalePct is the percentage of each table's rows present when
	// ANALYZE ran; 100 means fresh statistics. Stale statistics are
	// what make the forced-reopt configurations actually switch plans.
	StalePct int `json:"stale_pct"`
	// Alias binds every table under an alias (t0 a0, t1 a1, ...) and
	// qualifies every column reference with it, so the optimizer's
	// per-binding bookkeeping (required columns, join keys, remainder
	// SQL) is exercised through names that are not table names.
	Alias bool `json:"alias,omitempty"`
	// Star makes an ungrouped query's select list `*` (`a0.*, a1.*`
	// under Alias): every column leaves every scan, the case column
	// pruning must leave alone. Seed files written before these two
	// fields existed decode them as false and replay unchanged.
	Star bool `json:"star,omitempty"`
	// KeyPred adds a predicate on t0's primary key, which the optimizer
	// may read through t0's index: an equality with a literal or a host
	// variable, or a two-sided range (keyPred draws which).
	KeyPred bool `json:"key_pred,omitempty"`
}

// NewCase derives a case from a seed.
func NewCase(seed int64) Case {
	r := rand.New(rand.NewSource(seed))
	c := Case{
		Seed:     seed,
		NTables:  2 + r.Intn(3),
		Grouped:  r.Intn(2) == 0,
		HostVar:  r.Intn(2) == 0,
		StalePct: []int{100, 50, 30}[r.Intn(3)],
	}
	// Mostly small tables (fast cases), with a heavy tail large enough
	// that build sides outgrow the optimizer's 64 KB minimum demand and
	// hash joins actually spill under the tiny-budget configurations.
	c.MaxRows = 20 + r.Intn(600)
	if r.Intn(3) == 0 {
		c.MaxRows *= 5
	}
	c.GroupPK = c.Grouped && r.Intn(2) == 0
	c.JoinK = 2 + r.Intn(c.NTables-1)
	// Drawn last, so the fields above keep the values older seeds gave.
	c.Alias = r.Intn(2) == 0
	c.Star = !c.Grouped && r.Intn(3) == 0
	c.KeyPred = r.Intn(2) == 0
	return c
}

// keyPred is the case's predicate on t0's primary key: pk = lo when eq
// (through the :pk host variable when hostVar, drawn only in a HostVar
// case), else lo < pk < hi with each side inclusive as loIncl and hiIncl
// say. It draws from a stream of its own, so the rest of a case does not
// depend on it.
type keyPred struct {
	eq, hostVar    bool
	lo, hi         int64
	loIncl, hiIncl bool
}

func (c Case) keyPred() keyPred {
	r := rand.New(rand.NewSource(c.Seed*29 + 11))
	k := keyPred{lo: int64(r.Intn(c.MaxRows))}
	switch r.Intn(3) {
	case 0:
		k.eq = true
	case 1: // a host variable when the case binds them
		k.eq, k.hostVar = true, c.HostVar
	default:
		k.hi = k.lo + 1 + int64(r.Intn(c.MaxRows/4+1))
		k.loIncl, k.hiIncl = r.Intn(2) == 0, r.Intn(2) == 0
	}
	return k
}

// holds reports whether a t0 primary key satisfies the predicate.
func (k keyPred) holds(pk int64) bool {
	if k.eq {
		return pk == k.lo
	}
	return (pk > k.lo || k.loIncl && pk == k.lo) && (pk < k.hi || k.hiIncl && pk == k.hi)
}

// sql renders the predicate's conjuncts over the column named col.
func (k keyPred) sql(col string) []string {
	switch {
	case k.hostVar:
		return []string{col + " = :pk"}
	case k.eq:
		return []string{fmt.Sprintf("%s = %d", col, k.lo)}
	}
	lo, hi := ">", "<"
	if k.loIncl {
		lo = ">="
	}
	if k.hiIncl {
		hi = "<="
	}
	return []string{fmt.Sprintf("%s %s %d", col, lo, k.lo), fmt.Sprintf("%s %s %d", col, hi, k.hi)}
}

// String is the case's one-line identity, stable across runs.
func (c Case) String() string {
	g := "none"
	if c.Grouped {
		g = "grp"
		if c.GroupPK {
			g = "pk"
		}
	}
	s := fmt.Sprintf("seed=%d tables=%d rows<=%d k=%d groupby=%s hostvar=%v stale=%d%%",
		c.Seed, c.NTables, c.MaxRows, c.JoinK, g, c.HostVar, c.StalePct)
	if c.Alias {
		s += " alias"
	}
	if c.Star {
		s += " star"
	}
	if c.KeyPred {
		s += " key"
	}
	return s
}

// TableData holds one generated table's raw rows for the reference
// evaluator, plus enough metadata (histogram family, staleness point,
// index) for a caller to replay the exact same database through a
// different API surface — the root-package oracle test rebuilds each
// case through the public DB type from this.
type TableData struct {
	Name string
	Rows []types.Tuple // (pk int, fk int, grp int, val float)
	// Family is the histogram family ANALYZE used.
	Family histogram.Family
	// AnalyzeAt is the 1-based row count present when ANALYZE ran
	// (rows after it make the statistics stale).
	AnalyzeAt int
	// Indexed reports whether the pk column got an index.
	Indexed bool
}

// Env is a fully built fuzz case: catalog + data + query + reference
// answer, ready for the runner.
type Env struct {
	Case  Case
	Cat   *catalog.Catalog
	Pool  *storage.BufferPool
	Meter *storage.CostMeter
	// Background is the disk's meter, the background account: a
	// tributary of Meter, so that what it takes can be told apart.
	Background *storage.CostMeter
	Tables     []TableData
	SQL        string
	Params     map[string]types.Value
	// Want is the canonicalized reference answer.
	Want []string
	// AltSQL is the same FROM and WHERE under the other kind of select
	// list — `*` when SQL names its columns, two named columns when SQL
	// is a star — and AltWant its reference answer. The warm
	// configuration runs it between SQL's two executions, so one plan
	// cache serves a pruned and an unpruned plan over the same tables.
	AltSQL  string
	AltWant []string
}

// Build materializes the case: creates tables t<i>(pk, fk, grp, val)
// with seed-derived data, analyzes them at the case's staleness point,
// generates the chain-join query, and computes the reference answer.
func Build(c Case) (*Env, error) {
	if c.NTables < 2 {
		c.NTables = 2
	}
	if c.JoinK < 2 {
		c.JoinK = 2
	}
	if c.JoinK > c.NTables {
		c.JoinK = c.NTables
	}
	if c.MaxRows < 20 {
		c.MaxRows = 20
	}
	if c.StalePct <= 0 || c.StalePct > 100 {
		c.StalePct = 100
	}

	meter := storage.NewCostMeter(storage.DefaultCostWeights())
	background := meter.Tributary()
	pool := storage.NewBufferPool(storage.NewDisk(background), 256)
	env := &Env{Case: c, Cat: catalog.New(pool), Pool: pool, Meter: meter, Background: background}

	fams := []histogram.Family{histogram.MaxDiff, histogram.EquiDepth, histogram.EquiWidth}
	for ti := 0; ti < c.NTables; ti++ {
		// Per-table rng: shrinking NTables or MaxRows does not reshuffle
		// the surviving tables' contents.
		r := rand.New(rand.NewSource(c.Seed*31 + int64(ti)))
		name := fmt.Sprintf("t%d", ti)
		tbl, err := env.Cat.CreateTable(name, types.NewSchema(
			types.Column{Name: name + "_pk", Kind: types.KindInt, Key: true},
			types.Column{Name: name + "_fk", Kind: types.KindInt},
			types.Column{Name: name + "_grp", Kind: types.KindInt},
			types.Column{Name: name + "_val", Kind: types.KindFloat},
		))
		if err != nil {
			return nil, err
		}
		rows := 20 + r.Intn(c.MaxRows-19)
		fkDomain := 1 + r.Intn(rows)
		grpDomain := 1 + r.Intn(10)
		td := TableData{Name: name}
		for i := 0; i < rows; i++ {
			td.Rows = append(td.Rows, types.Tuple{
				types.NewInt(int64(i)),
				types.NewInt(int64(r.Intn(fkDomain))),
				types.NewInt(int64(r.Intn(grpDomain))),
				types.NewFloat(float64(r.Intn(1000))),
			})
		}
		// Stale statistics: analyze after StalePct% of the rows, then
		// load the rest, so the optimizer plans against undercounts.
		td.AnalyzeAt = rows * c.StalePct / 100
		if td.AnalyzeAt < 1 {
			td.AnalyzeAt = 1
		}
		td.Family = fams[r.Intn(len(fams))]
		td.Indexed = r.Intn(2) == 0
		for i, tup := range td.Rows {
			if err := tbl.Insert(tup.Clone()); err != nil {
				return nil, err
			}
			if i+1 == td.AnalyzeAt {
				if err := env.Cat.Analyze(name, catalog.AnalyzeOptions{Family: td.Family}); err != nil {
					return nil, err
				}
			}
		}
		if td.Indexed {
			if err := env.Cat.CreateIndex(name, name+"_pk"); err != nil {
				return nil, err
			}
		}
		env.Tables = append(env.Tables, td)
	}

	env.buildQuery()
	return env, nil
}

// filterCuts derives the per-table value filters from the seed: -1
// means no filter on that table.
func (c Case) filterCuts() []int {
	r := rand.New(rand.NewSource(c.Seed*17 + 5))
	cuts := make([]int, c.JoinK)
	for i := range cuts {
		if r.Intn(2) == 0 {
			cuts[i] = r.Intn(1000)
		} else {
			cuts[i] = -1
		}
	}
	// The host-variable configuration needs at least the t0 filter.
	if c.HostVar && cuts[0] < 0 {
		cuts[0] = r.Intn(1200)
	}
	return cuts
}

// projection is the shape of a generated query's select list.
type projection uint8

const (
	// projNarrow selects the first and last table's primary keys: the
	// value filters read columns the select list does not.
	projNarrow projection = iota
	// projStar selects every column of every table.
	projStar
	// projGrouped groups by a column of the first table and aggregates
	// the last table's value column under every function.
	projGrouped
)

// projections returns the case's own select-list shape and the
// alternate one run beside it on a warm plan cache.
func (c Case) projections() (own, alt projection) {
	switch {
	case c.Grouped:
		return projGrouped, projStar
	case c.Star:
		return projStar, projNarrow
	}
	return projNarrow, projStar
}

// buildQuery assembles the case's query and its alternate, with their
// reference answers.
func (e *Env) buildQuery() {
	own, alt := e.Case.projections()
	e.Params = map[string]types.Value{}
	e.SQL, e.AltSQL = e.querySQL(own), e.querySQL(alt) // these bind e.Params
	e.Want, e.AltWant = Canonical(e.reference(own)), Canonical(e.reference(alt))
}

// querySQL renders the chain join (prev.fk = cur.pk) with the
// seed-derived filters under the given select list.
func (e *Env) querySQL(p projection) string {
	c := e.Case
	used := e.Tables[:c.JoinK]
	// col names column i's attribute; qual is the same with the
	// relation's binding in front. Without aliases only join
	// predicates are qualified, as older seeds rendered them.
	qual := func(i int, attr string) string {
		binding := used[i].Name
		if c.Alias {
			binding = fmt.Sprintf("a%d", i)
		}
		return fmt.Sprintf("%s.%s_%s", binding, used[i].Name, attr)
	}
	col := func(i int, attr string) string {
		if c.Alias {
			return qual(i, attr)
		}
		return used[i].Name + "_" + attr
	}
	var from, where, stars []string
	for i, t := range used {
		if c.Alias {
			from = append(from, fmt.Sprintf("%s a%d", t.Name, i))
			stars = append(stars, fmt.Sprintf("a%d.*", i))
		} else {
			from = append(from, t.Name)
		}
		if i > 0 {
			where = append(where, qual(i-1, "fk")+" = "+qual(i, "pk"))
		}
	}
	for i, cut := range c.filterCuts() {
		if cut < 0 {
			continue
		}
		if i == 0 && c.HostVar {
			where = append(where, col(0, "val")+" < :cut")
			e.Params["cut"] = types.NewFloat(float64(cut))
			continue
		}
		where = append(where, fmt.Sprintf("%s < %d", col(i, "val"), cut))
	}
	if c.KeyPred {
		k := c.keyPred()
		where = append(where, k.sql(col(0, "pk"))...)
		if k.hostVar {
			e.Params["pk"] = types.NewInt(k.lo)
		}
	}

	k := c.JoinK
	var sel, tail string
	switch p {
	case projGrouped:
		gcol := "grp"
		if c.GroupPK {
			gcol = "pk"
		}
		val := col(k-1, "val")
		sel = fmt.Sprintf("%s, count(*) as cnt, sum(%s) as sv, min(%[2]s) as mn, max(%[2]s) as mx, avg(%[2]s) as av, count(%[2]s) as cv",
			col(0, gcol), val)
		tail = " group by " + col(0, gcol)
	case projStar:
		sel = "*"
		if c.Alias {
			sel = strings.Join(stars, ", ")
		}
	default:
		sel = col(0, "pk") + ", " + col(k-1, "pk")
	}
	sql := "select " + sel + " from " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " where " + strings.Join(where, " and ")
	}
	return sql + tail
}

// Canonical renders rows order-insensitively with limited float
// precision (sums of floats differ in the last bits across evaluation
// orders).
func Canonical(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.Kind() == types.KindFloat {
				parts[j] = fmt.Sprintf("%.6g", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}
