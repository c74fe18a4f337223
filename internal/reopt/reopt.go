package reopt

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/exchange"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/histogram"
	"repro/internal/memmgr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/scia"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// Mode selects which parts of Dynamic Re-Optimization are active; its
// row in policies says which. The paper's Figure 11 isolates
// memory-only and plan-only modes; Figure 10 compares Off ("Normal")
// against Full ("Re-Optimized").
type Mode uint8

// Available modes.
const (
	ModeOff        Mode = iota // the optimizer's plan as-is, with no collectors
	ModeMemoryOnly             // improved estimates only re-invoke the Memory Manager
	ModePlanOnly               // plan modification, never re-allocation
	ModeFull                   // the complete algorithm
	ModeRestart                // §2.4's rejected discard-and-restart, as an ablation
)

// policy is what a mode does; the modes differ in nothing else. arm
// reads collect, checkpoint reads realloc and replan, and
// considerSwitch reads restart.
type policy struct {
	name    string
	aliases []string // also accepted by ParseMode
	collect bool     // SCIA places collectors, so checkpoints happen
	realloc bool     // re-invoke the Memory Manager (§2.3)
	replan  bool     // test Equations 1 and 2 for a plan switch
	restart bool     // a suspect plan restarts instead of trialling (§2.4)
}

var policies = [...]policy{
	ModeOff:        {name: "off", aliases: []string{"", "normal"}},
	ModeMemoryOnly: {name: "memory-only", aliases: []string{"memory", "mem"}, collect: true, realloc: true},
	ModePlanOnly:   {name: "plan-only", aliases: []string{"plan"}, collect: true, replan: true},
	ModeFull:       {name: "full", collect: true, realloc: true, replan: true},
	ModeRestart:    {name: "restart", collect: true, replan: true, restart: true},
}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(policies) {
		return policies[m].name
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode maps a mode's name or one of its aliases, in any case, to
// the mode.
func ParseMode(s string) (Mode, error) {
	name := strings.ToLower(s)
	for m, p := range policies {
		if name == p.name || slices.Contains(p.aliases, name) {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// Strategy selects how a plan switch transfers the running operator's
// output into the new plan (§2.4).
type Strategy uint8

// The two switch strategies of Figures 5 and 6.
const (
	// StrategyMaterialize is the paper's implemented variant (Figure
	// 6): the running join completes with its output redirected to a
	// temporary table, and SQL for the remainder is re-submitted over
	// it. Simple, but pays a write+read of the intermediate.
	StrategyMaterialize Strategy = iota
	// StrategySplice is the paper's "best under the circumstances"
	// option (Figure 5): execution state is kept — the running join's
	// output stream is spliced directly into the new remainder plan's
	// leaf, with no materialization. Requires the new plan to keep the
	// intermediate leftmost; when it does not, the dispatcher falls
	// back to materialization.
	StrategySplice
)

// String names the strategy.
func (s Strategy) String() string { return [...]string{"materialize", "splice"}[s] }

// Config carries the algorithm's tuning knobs, defaulting to the paper's
// settings: μ=0.05, θ₁=0.05, θ₂=0.2.
type Config struct {
	Mode     Mode
	Strategy Strategy
	Theta1   float64 // Equation 1 threshold
	Theta2   float64 // Equation 2 threshold
	Mu       float64 // SCIA overhead budget fraction

	// MemBudget is the per-query operator memory in bytes.
	MemBudget float64
	// Lease, when set, ties the query's operator memory to a shared
	// broker pool instead of the fixed MemBudget: the budget is
	// whatever the lease currently holds, mid-query re-allocation
	// returns surplus grants to the broker for other queries (§2.3's
	// multi-query motivation), and grows the lease when improved
	// estimates raise the remainder's demands.
	Lease *memmgr.Lease
	// QueryTag uniquely names this query across concurrent sessions;
	// it is woven into temp-table names so plan switches by different
	// queries never collide in the shared catalog.
	QueryTag string
	// PoolPages is the shared buffer pool size, for cache-aware
	// index-join costing; 0 assumes cold fetches.
	PoolPages float64
	// HistFamily is the family for catalog and run-time histograms.
	HistFamily histogram.Family
	Weights    storage.CostWeights
	// MaxSwitches bounds recursive plan modification (default 3).
	MaxSwitches int
	// SwitchMargin is the fraction by which the new plan's estimated
	// total must undercut the current plan's improved estimate before a
	// switch is taken (default 0.15). Both sides of the comparison are
	// still estimates — the new plan's cost in particular leans on
	// catalog statistics for the relations not yet touched — so a
	// break-even switch is a coin flip that also pays materialization.
	SwitchMargin float64
	// Degree is the intra-query parallelism: plans are rewritten with
	// exchange operators splitting each segment across Degree worker
	// goroutines. 0 or 1 executes serially. Parallelization happens
	// after SCIA collector insertion and memory allocation, and gathers
	// sit exactly at checkpoint boundaries, so the re-optimization
	// machinery is degree-oblivious.
	Degree int
	// DisableIndexJoin is forwarded to the optimizer (ablations).
	DisableIndexJoin bool
	Seed             int64
	// CheckpointHook, when non-nil, runs at the start of every
	// checkpoint decision with the step index. It is a deterministic
	// interleaving seam: concurrency tests use it to commit writes at
	// an exact decision point and assert the query's rows and decisions
	// do not move, since its snapshot never reads them.
	CheckpointHook func(step int)
	// Trace, when non-nil, receives the dispatcher's lifecycle events:
	// plan registrations, SCIA placements, and one decision event per
	// checkpoint. Nil (the default) disables tracing.
	Trace *obs.Trace
}

// DefaultConfig returns the paper's parameterization.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		Theta1:       0.05,
		Theta2:       0.2,
		Mu:           0.05,
		MemBudget:    32 << 20,
		HistFamily:   histogram.MaxDiff,
		Weights:      storage.DefaultCostWeights(),
		MaxSwitches:  3,
		SwitchMargin: 0.15,
	}
}

// Cause is why a checkpoint kept or left its plan. The causes up to
// CauseRestart are the checkpoints where Equations 1 and 2 ran.
type Cause uint8

// The causes, in the order §2.4 tests them.
const (
	CauseEq2        Cause = iota // Eq. 2: improved within θ₂ of the promise
	CauseEq1                     // Eq. 1: re-planning dearer than θ₁ of the rest
	CauseTrialLost               // the trial missed the switch margin, or had nothing to plan
	CauseTrialWon                // the trial won: switch
	CauseRestart                 // restart ablation: restart with no trial
	CauseMemoryOnly              // memory-only mode: no plan decision
	CauseExhausted               // no switches left
	CauseParametric              // a prepared statement's bind-time choice (step −1)
)

var causeNames = [...]string{"eq2", "eq1", "trial lost", "trial won", "restart ablation",
	"memory-only mode", "switches exhausted", "parametric"}

// String names the cause.
func (c Cause) String() string { return causeNames[c] }

// Decision is one checkpoint's verdict, written once by
// dispatchRun.record; the Stats counters, the progress record, the trace
// and String all read it.
type Decision struct {
	Step             int     // join whose build just finished; −1 for a parametric choice
	ObsRows, EstRows float64 // the collector's rows (parametric: actual, scenario selectivity)
	// Rels is the relation set whose rows ObsRows counts, a bitmask over
	// the Query.Rels of the plan the query started from; 0 when ObsRows
	// is no set's rows (a parametric choice, a join's output under its
	// residual filter). MatRows is the exact row count of the temp a
	// materializing switch filled, for the set MatRels; 0 otherwise.
	Rels, MatRels          uint32
	MatRows                float64
	Realloc                bool    // the Memory Manager re-ran over the operators not yet started
	Moved, Returned, Grown float64 // Σ|grant after − before| over them; bytes to/from the broker
	// Elapsed is the cost spent so far, Improved is T_cur,improved
	// (Elapsed plus the remainder re-costed under its final grants) and
	// Estimate the plan's promise; TOpt and Trial stay 0 unless Eq. 1 or
	// a trial ran.
	Elapsed, Improved, Estimate, TOpt, Trial float64
	Cause                                    Cause
	Via                                      Strategy // how a switch reached its new plan
}

// Suspect reports whether the checkpoint found its plan suspect under
// Eq. 2: every cause but eq2, memory-only mode and parametric.
func (d Decision) Suspect() bool {
	return d.Cause != CauseEq2 && d.Cause != CauseMemoryOnly && d.Cause != CauseParametric
}

// Switched reports whether the checkpoint left its plan.
func (d Decision) Switched() bool { return d.Cause == CauseTrialWon || d.Cause == CauseRestart }

// String renders the decision for logs and the trace.
func (d Decision) String() string {
	if d.Cause == CauseParametric {
		return fmt.Sprintf("parametric: chose scenario %.3g for actual selectivity %.3g", d.EstRows, d.ObsRows)
	}
	action := "keep"
	if d.Switched() {
		action = "switch via " + d.Via.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint %d: %s (%s: improved %.0f vs estimate %.0f, elapsed %.0f",
		d.Step, action, d.Cause, d.Improved, d.Estimate, d.Elapsed)
	if d.TOpt > 0 {
		fmt.Fprintf(&b, ", T_opt %.1f", d.TOpt)
	}
	if d.Trial > 0 {
		fmt.Fprintf(&b, ", trial %.0f", d.Trial)
	}
	if d.Moved > 0 {
		fmt.Fprintf(&b, "; memory re-allocated, %.0f bytes moved", d.Moved)
	}
	if d.Grown+d.Returned > 0 {
		fmt.Fprintf(&b, ", broker +%.0f/-%.0f bytes", d.Grown, d.Returned)
	}
	return b.String() + ")"
}

// Stats reports what the dispatcher did during one query. MemReallocs
// (records that moved a grant) and PlanSwitches count Decisions as fields
// (dispatchRun.record): the benchmark module reads them, and PlanSwitches
// bounds MaxSwitches. Broker traffic is the lease's (memmgr.LeaseStats).
type Stats struct {
	CollectorsInserted int
	Observations       int
	MemReallocs        int
	PlanSwitches       int
	// Decisions holds one record per checkpoint, in checkpoint order.
	Decisions []Decision
	// EstimatedCost is the optimizer's total-cost estimate for the
	// initial plan, in simulated cost units. Comparing it against the
	// metered actual cost gives the estimate error the benchmark
	// harness reports.
	EstimatedCost float64
	// Parallel execution accounting (zero when Degree < 2): the degree
	// the query ran at and how many goroutines its exchange regions
	// started (exec.Ctx.Workers): N for a leaf gather, 2N+1 for a
	// hash-join stage, N+1 for an aggregation. Every worker's work is in
	// the metered total cost; how much of it overlapped is a question
	// for the stopwatch.
	Degree         int
	WorkersSpawned int
}

// Observed returns the rows the query's checkpoints and materialized
// switches counted, per relation set of the plan it started from.
func (st *Stats) Observed() optimizer.Overlay {
	ov := optimizer.Overlay{}
	for _, d := range st.Decisions {
		if d.Rels != 0 {
			ov[d.Rels] = d.ObsRows
		}
		if d.MatRels != 0 {
			ov[d.MatRels] = d.MatRows
		}
	}
	return ov
}

// Considered counts the checkpoints that evaluated Equations 1 and 2.
func (st *Stats) Considered() (n int) {
	for _, d := range st.Decisions {
		n += b2i(d.Cause <= CauseRestart)
	}
	return n
}

// Dispatcher is the modified scheduler/dispatcher of §3.1: it owns query
// compilation (optimize → SCIA → memory allocation) and segmented
// execution with mid-query decisions.
type Dispatcher struct {
	Cat *catalog.Catalog
	Cfg Config

	tempSeq int
	// temps tracks every temp table this dispatcher registered and has
	// not yet dropped. A dispatcher serves one query on one goroutine,
	// so no lock is needed. Whatever remains after the query — because an
	// abort skipped a drop, or a drop itself failed — is released by
	// Cleanup, which the session calls unconditionally.
	temps map[string]struct{}
	// query is the analyzed statement of the plan the query started
	// from; relation sets (Decision.Rels) are bitmasks over its Rels.
	query *optimizer.Query
	// prefixes lists every temp standing for a consumed prefix, with the
	// relation set of query it covers.
	prefixes []prefix
}

// prefix is one temp's binding and the relation set it stands for.
type prefix struct {
	binding string
	set     uint32
}

// relSet returns the relation set of query that a binding one of the
// query's plans scans covers: a relation of query by its position, a
// temp by the prefix it stands for.
func (d *Dispatcher) relSet(binding string) uint32 {
	for i := range d.query.Rels {
		if d.query.Rels[i].Binding == binding {
			return 1 << uint(i)
		}
	}
	for _, p := range d.prefixes {
		if p.binding == binding {
			return p.set
		}
	}
	return 0
}

// trackTemp records a temp table as live until dropTemp succeeds on it.
func (d *Dispatcher) trackTemp(name string) {
	if d.temps == nil {
		d.temps = make(map[string]struct{})
	}
	d.temps[name] = struct{}{}
}

// dropTemp drops one tracked temp table. The fault-injection site models
// DropTable failing mid-switch; on any failure the name stays tracked so
// Cleanup retries it, keeping the no-leaked-temps invariant.
func (d *Dispatcher) dropTemp(name string) error {
	if _, ok := d.temps[name]; !ok {
		return nil
	}
	if err := faultinject.Hit("reopt.droptemp"); err != nil {
		return err
	}
	if err := d.Cat.DropTable(name); err != nil {
		return err
	}
	delete(d.temps, name)
	return nil
}

// Cleanup drops every temp table still tracked. It is the query's abort
// backstop: sessions defer it so user cancels, deadlines, operator
// errors, and panics all leave the catalog temp-free. Returns the first
// drop error, if any (the names are forgotten regardless — a temp whose
// drop failed twice has no better third option).
func (d *Dispatcher) Cleanup() error {
	var first error
	for name := range d.temps {
		if err := d.Cat.DropTable(name); err != nil && first == nil {
			first = err
		}
		delete(d.temps, name)
	}
	return first
}

// tempCounter issues engine-wide unique temp-table numbers. A
// per-dispatcher sequence is not enough once queries run concurrently
// against one shared catalog: two dispatchers both naming their first
// materialization "mqr_temp_1" would collide in RegisterTemp and fail
// otherwise-healthy queries.
var tempCounter atomic.Int64

// tempName generates a catalog-unique temporary table name. The query
// tag (session/query id) keeps names attributable under concurrency;
// the global counter guarantees uniqueness even without a tag.
func (d *Dispatcher) tempName(kind string) string {
	n := tempCounter.Add(1)
	if d.Cfg.QueryTag != "" {
		return fmt.Sprintf("mqr_%s_%s_%d", kind, d.Cfg.QueryTag, n)
	}
	return fmt.Sprintf("mqr_%s_%d", kind, n)
}

// budget returns the operator-memory budget the query runs under right
// now: the lease's current holding when brokered, the fixed configured
// budget otherwise.
func (d *Dispatcher) budget() float64 {
	if d.Cfg.Lease != nil {
		return d.Cfg.Lease.Held()
	}
	return d.Cfg.MemBudget
}

// New returns a dispatcher over the catalog.
func New(cat *catalog.Catalog, cfg Config) *Dispatcher {
	if cfg.MaxSwitches <= 0 {
		cfg.MaxSwitches = 3
	}
	if cfg.Theta1 <= 0 {
		cfg.Theta1 = 0.05
	}
	if cfg.Theta2 <= 0 {
		cfg.Theta2 = 0.2
	}
	if cfg.Mu <= 0 {
		cfg.Mu = 0.05
	}
	return &Dispatcher{Cat: cat, Cfg: cfg}
}

// Optimizer is the one optimizer.Optimizer the engine plans with, built
// from the dispatcher's Config and the budget it runs under right now.
// Optimize uses it, and so do the parametric candidates a session
// prepares.
func (d *Dispatcher) Optimizer() *optimizer.Optimizer {
	return &optimizer.Optimizer{
		Weights:          d.Cfg.Weights,
		MemBudget:        d.budget(),
		DisableIndexJoin: d.Cfg.DisableIndexJoin,
		PoolPages:        d.Cfg.PoolPages,
	}
}

// Optimize is the one place a statement becomes an optimizer plan:
// semantic analysis, then the dispatcher's Optimizer. The initial
// compile, every trial and splice re-optimization, EXPLAIN, and the
// session's plan-cache misses all come through here, so a plan switch
// re-plans through exactly the entry that planned the query.
func (d *Dispatcher) Optimize(stmt *sql.SelectStmt) (*optimizer.Result, error) {
	return d.OptimizeWith(stmt, nil)
}

// OptimizeWith is Optimize under an overlay of the rows an earlier run
// of stmt observed (Stats.Observed): the plan-cache entry's re-plan.
func (d *Dispatcher) OptimizeWith(stmt *sql.SelectStmt, ov optimizer.Overlay) (*optimizer.Result, error) {
	q, err := optimizer.Analyze(d.Cat, stmt)
	if err != nil {
		return nil, err
	}
	o := d.Optimizer()
	o.Overlay = ov
	return o.Optimize(q)
}

// arm turns an optimized plan into the one that executes: SCIA
// collectors (if the mode collects), the Memory Manager's grants under
// the current budget, exchange operators for the configured degree, and
// the registration observers read.
func (d *Dispatcher) arm(res *optimizer.Result, st *Stats, ctx *exec.Ctx) error {
	if int(d.Cfg.Mode) >= len(policies) {
		return fmt.Errorf("reopt: unknown mode %v", d.Cfg.Mode)
	}
	if policies[d.Cfg.Mode].collect {
		ins, err := scia.Insert(res, d.sciaConfig())
		if err != nil {
			return err
		}
		// Collector IDs run on across the query's plans: a spliced stream
		// still carries a collector of the plan it came from, whose report
		// the new plan's dispatch must not take for one of its own.
		for _, in := range ins {
			st.CollectorsInserted++
			in.Collector.ID = st.CollectorsInserted
		}
	}
	memmgr.New(d.budget()).Allocate(res.Root)
	res.Root = exchange.Parallelize(res.Root, d.Cfg.Degree)
	d.registerPlan(res, st, ctx)
	return nil
}

// RunSQL parses, compiles, and executes one query, applying Dynamic
// Re-Optimization per the configured mode.
func (d *Dispatcher) RunSQL(src string, params plan.Params, ctx *exec.Ctx) ([]types.Tuple, *Stats, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := d.Optimize(stmt)
	if err != nil {
		return nil, nil, err
	}
	return d.RunPlan(res, params, ctx)
}

// RunPlan executes an already-optimized plan through the full dispatch
// path (SCIA insertion, memory allocation, segmented execution with
// checkpoints). The session runs every query through it (the plan comes
// from the plan cache or Optimize), and the parametric hybrid (the
// paper's §4 proposal) uses it to execute the candidate chosen at bind
// time while keeping Dynamic Re-Optimization armed for the cases the
// parametric plan did not anticipate. The Result is consumed: its
// annotations are mutated during execution.
func (d *Dispatcher) RunPlan(res *optimizer.Result, params plan.Params, ctx *exec.Ctx) ([]types.Tuple, *Stats, error) {
	st := &Stats{}
	d.query = res.Query
	if d.Cfg.Degree > 1 {
		st.Degree = d.Cfg.Degree
		ctx.Workers = new(atomic.Int64)
	}
	rows, err := d.dispatch(res, params, ctx, st, nil)
	if ctx.Workers != nil {
		st.WorkersSpawned = int(ctx.Workers.Load())
	}
	return rows, st, err
}

// EstimateOnly compiles a query and returns its annotated plan without
// executing it (EXPLAIN support for the CLI and examples).
func (d *Dispatcher) EstimateOnly(src string) (*optimizer.Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := d.Optimize(stmt)
	if err != nil {
		return nil, err
	}
	// Nothing runs, so the registration lands in a throwaway Stats and a
	// context with no observers attached.
	if err := d.arm(res, &Stats{}, &exec.Ctx{}); err != nil {
		return nil, err
	}
	return res, nil
}

// sciaConfig assembles the SCIA's configuration from the dispatcher's.
func (d *Dispatcher) sciaConfig() scia.Config {
	return scia.Config{
		Mu:         d.Cfg.Mu,
		HistFamily: d.Cfg.HistFamily,
		Weights:    d.Cfg.Weights,
		Seed:       d.Cfg.Seed,
		Trace:      d.Cfg.Trace,
	}
}

// registerPlan records a compiled plan everywhere observers care: the
// query's progress record (first registration is the initial plan,
// later ones are re-optimized remainders), the initial estimated total
// cost, and the trace. A switch is recorded before its remainder plan
// registers, so the plan's index is one past the switches so far.
func (d *Dispatcher) registerPlan(res *optimizer.Result, st *Stats, ctx *exec.Ctx) {
	if st.EstimatedCost == 0 {
		st.EstimatedCost = res.Root.Est().Cost
	}
	ctx.Prog.StartPlan(res.Root)
	ctx.Prog.SetEstimate(res.Root.Est().Cost)
	if d.Cfg.Trace.Enabled() {
		d.Cfg.Trace.Emit("plan", "plan compiled",
			"plan_index", st.PlanSwitches+1,
			"est_cost", res.Root.Est().Cost,
			"est_rows", res.Root.Est().Rows,
			"collectors", st.CollectorsInserted,
		)
	}
}
