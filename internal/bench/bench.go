// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation (§3.2): Figure 10 (Normal vs Re-Optimized),
// Figure 11 (memory-management-only vs plan-modification-only), and
// Figure 12 (Zipfian skew at z = 0.3 and 0.6), plus the μ-overhead
// guarantee, the θ/μ sensitivity sweep the paper defers to [12], and the
// design-choice ablations DESIGN.md calls out.
//
// All "times" are deterministic simulated cost units (page I/O plus
// weighted tuple CPU); the buffer pool is dropped before every measured
// run so run-order cache effects cannot masquerade as re-optimization
// effects. Shapes — who wins, by roughly what factor — are the
// reproduction target, not absolute numbers; EXPERIMENTS.md records the
// comparison against the paper. Every statement runs through a
// session.Session on a private memory budget (Env.Exec), the engine's
// one front door, and TestFiguresMatchGolden pins the figures' numbers.
package bench

import (
	"cmp"
	"context"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// Config fixes one experimental environment.
type Config struct {
	// SF is the TPC-D scale factor (default 0.01 ≈ 9 MB of data, kept
	// in the paper's data:memory regime by the pool and budget below).
	SF float64
	// PoolPages sizes the buffer pool (default 256 pages = 2 MB,
	// ≈ 27:1 data:pool like the paper's 3 GB : 128 MB cluster).
	PoolPages int
	// MemBudget is per-query operator memory (default 2 MB).
	MemBudget float64
	// StaleFrac makes catalog statistics stale (default 0.5): ANALYZE
	// ran when half the data was loaded. This reproduces the paper's
	// estimation-error regime; see DESIGN.md.
	StaleFrac float64
	// Zipf skews all non-key attributes (Figure 12).
	Zipf float64
	// FactIndexes builds the lineitem.l_orderkey secondary index (the
	// hybrid experiment uses it so selectivity scenarios genuinely
	// disagree about join methods).
	FactIndexes bool
	// HistFamily is the catalog histogram family.
	HistFamily histogram.Family
	// Mu, Theta1, Theta2 override the paper's defaults when non-zero.
	Mu, Theta1, Theta2 float64
	Seed               int64
}

// Default returns the frozen benchmark environment used by EXPERIMENTS.md.
func Default() Config {
	return Config{
		SF:        0.01,
		PoolPages: 256,
		MemBudget: 2 << 20,
		StaleFrac: 0.5,
	}
}

// Env is a loaded database ready to run the query set.
type Env struct {
	Cfg   Config
	Cat   *catalog.Catalog
	Pool  *storage.BufferPool
	Meter *storage.CostMeter

	// sess runs every figure's statements; see session.
	sess *session.Session
}

// NewEnv generates and loads the TPC-D data for a config.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.SF <= 0 {
		cfg.SF = 0.01
	}
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 256
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 2 << 20
	}
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	pool := storage.NewBufferPool(storage.NewDisk(m), cfg.PoolPages)
	cat := catalog.New(pool)
	err := tpcd.Load(cat, tpcd.Config{
		SF:          cfg.SF,
		Zipf:        cfg.Zipf,
		Seed:        cfg.Seed,
		HistFamily:  cfg.HistFamily,
		StaleFrac:   cfg.StaleFrac,
		FactIndexes: cfg.FactIndexes,
	})
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, Cat: cat, Pool: pool, Meter: m}, nil
}

// session is the env's one session, opened on first use — the path the
// library's DB takes: a manager that caches no plans, and statements
// that run on a private operator-memory budget, with no broker. NewEnv
// does not open it: every manager registers the catalog's mqr.* tables,
// so one a caller builds over the env's catalog would rebind them.
func (e *Env) session() *session.Session {
	if e.sess == nil {
		e.sess = session.NewManager(e.Cat, e.Pool, e.Meter, session.Config{PlanCacheSize: -1}).Session()
	}
	return e.sess
}

// options fills what opts leaves unset from the env's configuration: the
// private budget and histogram family always, μ, θ₁ and θ₂ when the
// configuration overrides the paper's defaults.
func (e *Env) options(opts session.Options) session.Options {
	opts.MemBudget, opts.HistFamily = e.Cfg.MemBudget, e.Cfg.HistFamily
	opts.Mu = cmp.Or(opts.Mu, e.Cfg.Mu)
	opts.Theta1 = cmp.Or(opts.Theta1, e.Cfg.Theta1)
	opts.Theta2 = cmp.Or(opts.Theta2, e.Cfg.Theta2)
	return opts
}

// Exec runs one statement cold — the buffer pool is dropped first — through
// the env's session.
func (e *Env) Exec(src string, opts session.Options) (*session.Result, error) {
	e.Pool.EvictAll()
	return e.session().Exec(context.Background(), src, e.options(opts))
}

// runModes runs q once in each mode.
func (e *Env) runModes(q tpcd.Query, modes ...reopt.Mode) ([]*session.Result, error) {
	out := make([]*session.Result, len(modes))
	for i, mode := range modes {
		res, err := e.Exec(q.SQL, session.Options{Mode: mode})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", q.Name, mode, err)
		}
		out[i] = res
	}
	return out, nil
}

// Row is one query's measurements across modes. Zero cells were not run.
type Row struct {
	Query string     `json:"query"`
	Class tpcd.Class `json:"class"`
	Off   float64    `json:"off"`
	Mem   float64    `json:"mem,omitempty"`
	Plan  float64    `json:"plan,omitempty"`
	Full  float64    `json:"full,omitempty"`
	// EstCost is the optimizer's estimated cost of the initial plan in
	// the re-optimized run; comparing it against the measured cost gives
	// the estimate's error.
	EstCost  float64 `json:"est_cost,omitempty"`
	Switches int     `json:"switches"`
	Reallocs int     `json:"reallocs"`
}

// pct formats a relative change against Off.
func pct(v, off float64) string {
	if v == 0 || off == 0 {
		return "      -"
	}
	return fmt.Sprintf("%+6.1f%%", (v/off-1)*100)
}

// Figure10 measures Normal (off) vs Re-Optimized (full) for every query.
func Figure10(cfg Config) ([]Row, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, q := range tpcd.Queries() {
		r, err := env.runModes(q, reopt.ModeOff, reopt.ModeFull)
		if err != nil {
			return nil, err
		}
		st := r[1].Stats
		rows = append(rows, Row{
			Query: q.Name, Class: q.Class, Off: r[0].Cost, Full: r[1].Cost,
			EstCost: st.EstimatedCost, Switches: st.PlanSwitches, Reallocs: st.MemReallocs,
		})
	}
	return rows, nil
}

// Figure11 isolates the two mechanisms for the medium and complex
// queries, as the paper does ("the simple queries are not really
// affected ... we have not included them").
func Figure11(cfg Config) ([]Row, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, q := range tpcd.Queries() {
		if q.Class == tpcd.Simple {
			continue
		}
		r, err := env.runModes(q, reopt.ModeOff, reopt.ModeMemoryOnly, reopt.ModePlanOnly)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Query: q.Name, Class: q.Class, Off: r[0].Cost, Mem: r[1].Cost, Plan: r[2].Cost,
			EstCost: r[2].Stats.EstimatedCost, Switches: r[2].Stats.PlanSwitches,
		})
	}
	return rows, nil
}

// Figure12 re-runs the Figure 10 comparison under Zipfian skew.
func Figure12(cfg Config, z float64) ([]Row, error) {
	cfg.Zipf = z
	return Figure10(cfg)
}

// FormatRows renders measurement rows as an aligned table.
func FormatRows(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-5s %-8s %10s %18s %18s %18s  %s\n",
		"query", "class", "normal", "mem-only", "plan-only", "re-optimized", "sw/ra")
	for _, r := range rows {
		memCell, planCell, fullCell := "      -", "      -", "      -"
		if r.Mem > 0 {
			memCell = fmt.Sprintf("%8.0f %s", r.Mem, pct(r.Mem, r.Off))
		}
		if r.Plan > 0 {
			planCell = fmt.Sprintf("%8.0f %s", r.Plan, pct(r.Plan, r.Off))
		}
		if r.Full > 0 {
			fullCell = fmt.Sprintf("%8.0f %s", r.Full, pct(r.Full, r.Off))
		}
		fmt.Fprintf(&b, "%-5s %-8s %10.0f %18s %18s %18s  %d/%d\n",
			r.Query, r.Class, r.Off, memCell, planCell, fullCell, r.Switches, r.Reallocs)
	}
	return b.String()
}

// MuRow is one point of the μ-overhead guarantee check.
type MuRow struct {
	Query    string  `json:"query"`
	Mu       float64 `json:"mu"`
	Overhead float64 `json:"overhead"` // fractional slowdown of full vs off
}

// MuGuarantee measures the worst-case overhead of running with
// re-optimization enabled on queries that do not benefit, across μ
// values. The paper's claim: with μ = 0.05 no query is ever more than
// 5% worse than normal.
func MuGuarantee(cfg Config, mus []float64) ([]MuRow, error) {
	var out []MuRow
	for _, mu := range mus {
		c := cfg
		c.Mu = mu
		c.StaleFrac = 0 // fresh statistics: nothing to gain, pure overhead
		env, err := NewEnv(c)
		if err != nil {
			return nil, err
		}
		for _, q := range tpcd.Queries() {
			if q.Class != tpcd.Simple {
				continue
			}
			r, err := env.runModes(q, reopt.ModeOff, reopt.ModeFull)
			if err != nil {
				return nil, err
			}
			out = append(out, MuRow{Query: q.Name, Mu: mu, Overhead: r[1].Cost/r[0].Cost - 1})
		}
	}
	return out, nil
}

// SensRow is one point of the θ₂ sensitivity sweep.
type SensRow struct {
	Theta2   float64 `json:"theta2"`
	Query    string  `json:"query"`
	Full     float64 `json:"full"`
	Off      float64 `json:"off"`
	Switches int     `json:"switches"`
}

// Sensitivity sweeps θ₂ (the sub-optimality indicator threshold) over
// the medium and complex queries — the analysis the paper defers to
// Kabra's thesis. The sweep runs in plan-only mode, where θ₂ is the
// gate for plan switches (in the full mode, memory re-allocation often
// repairs the improved estimate before Equation 2 is evaluated).
func Sensitivity(cfg Config, theta2s []float64) ([]SensRow, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	var out []SensRow
	for _, q := range tpcd.Queries() {
		if q.Class == tpcd.Simple {
			continue
		}
		off, err := env.runModes(q, reopt.ModeOff)
		if err != nil {
			return nil, err
		}
		for _, th := range theta2s {
			full, err := env.Exec(q.SQL, session.Options{Mode: reopt.ModePlanOnly, Theta2: th})
			if err != nil {
				return nil, fmt.Errorf("%s theta2 %g: %w", q.Name, th, err)
			}
			out = append(out, SensRow{Theta2: th, Query: q.Name, Full: full.Cost, Off: off[0].Cost, Switches: full.Stats.PlanSwitches})
		}
	}
	return out, nil
}

// AblationRow compares design-choice variants on one query.
type AblationRow struct {
	Query   string  `json:"query"`
	Variant string  `json:"variant"`
	Cost    float64 `json:"cost"`
}

// Ablations runs the DESIGN.md §5 variants over the complex queries:
// the paper's Figure-6 materialize-and-resubmit vs the rejected
// discard-all restart (option 1), the SCIA's μ-budgeted collectors vs a
// collect-everything policy (μ = 1), and hash-only plans.
func Ablations(cfg Config) ([]AblationRow, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts session.Options
	}{
		{"normal", session.Options{Mode: reopt.ModeOff}},
		{"full", session.Options{Mode: reopt.ModeFull}},
		{"splice", session.Options{Mode: reopt.ModeFull, SpliceSwitch: true}},
		{"restart", session.Options{Mode: reopt.ModeRestart}},
		{"collect-all", session.Options{Mode: reopt.ModeFull, Mu: 1}},
		{"hash-only", session.Options{Mode: reopt.ModeFull, DisableIndexJoin: true}},
	}
	var out []AblationRow
	for _, q := range tpcd.Queries() {
		if q.Class != tpcd.Complex {
			continue
		}
		for _, v := range variants {
			res, err := env.Exec(q.SQL, v.opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", q.Name, v.name, err)
			}
			out = append(out, AblationRow{Query: q.Name, Variant: v.name, Cost: res.Cost})
		}
	}
	return out, nil
}

// hybridQuery is a Q3-style TPC-D query whose price cutoff is a host
// variable — a run-time parameter a parametric plan covers. The
// predicate sits on orders, the probe side of the first join, which is
// exactly where mid-query statistics arrive too late (§2.2): dynamic
// re-optimization alone cannot fix a mis-chosen join method here, but a
// parametric plan that anticipates a selective binding can.
const hybridQuery = `select l_orderkey, sum(l_extendedprice) as revenue
	from customer, orders, lineitem
	where customer.c_custkey = orders.o_custkey
	  and lineitem.l_orderkey = orders.o_orderkey
	  and o_totalprice < :cap
	group by l_orderkey order by revenue desc limit 10`

// HybridRow is one variant of the parametric/dynamic comparison.
type HybridRow struct {
	Variant  string  `json:"variant"`
	Cost     float64 `json:"cost"`
	Switches int     `json:"switches"`
}

// Hybrid compares the paper's §4 future-work proposal end to end on
// highly selective bindings — the case the static optimizer's default
// host-variable selectivities mispredict, where a full fact-table scan
// is planned for a handful of matching orders: static plan, dynamic
// re-optimization, parametric choice alone, and the parametric +
// dynamic hybrid.
func Hybrid(cfg Config) ([]HybridRow, error) {
	cfg.FactIndexes = true // give the scenarios a method choice to disagree on
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	params := map[string]types.Value{
		// o_totalprice starts at 1000: this keeps ~1% of orders, far
		// below the 1/3 the static optimizer assumes for a host-var
		// range predicate.
		"cap": types.NewFloat(1040),
	}
	// The parametric variants run the candidate Choose picks for the
	// bindings, as midquery's Prepared.Exec does.
	prep, err := env.session().Prepare(hybridQuery, env.options(session.Options{}))
	if err != nil {
		return nil, err
	}
	run := func(mode reopt.Mode, parametric bool) (*session.Result, error) {
		opts := session.Options{Mode: mode, Params: params}
		if !parametric {
			return env.Exec(hybridQuery, opts)
		}
		pre, _, err := prep.Choose(params)
		if err != nil {
			return nil, err
		}
		env.Pool.EvictAll()
		return env.session().ExecPlan(context.Background(), pre, env.options(opts))
	}
	var out []HybridRow
	for _, v := range []struct {
		name       string
		mode       reopt.Mode
		parametric bool
	}{
		{"static", reopt.ModeOff, false},
		{"reopt", reopt.ModeFull, false},
		{"parametric", reopt.ModeOff, true},
		{"hybrid", reopt.ModeFull, true},
	} {
		res, err := run(v.mode, v.parametric)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, HybridRow{Variant: v.name, Cost: res.Cost, Switches: res.Stats.PlanSwitches})
	}
	return out, nil
}

// HistFamilyRow compares catalog histogram families (how often
// re-optimization fires and what it buys depends on base-estimate
// quality — the premise of the SCIA's inaccuracy-potential rules).
type HistFamilyRow struct {
	Family   string  `json:"family"`
	Query    string  `json:"query"`
	Off      float64 `json:"off"`
	Full     float64 `json:"full"`
	Switches int     `json:"switches"`
}

// HistFamilies re-runs Figure 10's complex queries with each histogram
// family in the catalog.
func HistFamilies(cfg Config) ([]HistFamilyRow, error) {
	var out []HistFamilyRow
	for _, fam := range []histogram.Family{histogram.MaxDiff, histogram.EquiDepth, histogram.EquiWidth} {
		c := cfg
		c.HistFamily = fam
		env, err := NewEnv(c)
		if err != nil {
			return nil, err
		}
		for _, q := range tpcd.Queries() {
			if q.Class != tpcd.Complex {
				continue
			}
			r, err := env.runModes(q, reopt.ModeOff, reopt.ModeFull)
			if err != nil {
				return nil, err
			}
			out = append(out, HistFamilyRow{
				Family: fam.String(), Query: q.Name, Off: r[0].Cost, Full: r[1].Cost, Switches: r[1].Stats.PlanSwitches,
			})
		}
	}
	return out, nil
}
