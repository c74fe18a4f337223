// Package midquery is a from-scratch reproduction of Kabra & DeWitt,
// "Efficient Mid-Query Re-Optimization of Sub-Optimal Query Execution
// Plans" (SIGMOD 1998): a single-process relational query engine — paged
// storage over a simulated cost-accounted disk, catalog with histogram
// statistics, a System-R style optimizer producing annotated plans, a
// Memory Manager, and an iterator executor — with the paper's Dynamic
// Re-Optimization layered on top: statistics collectors inserted by the
// SCIA, mid-query memory re-allocation, and plan modification by
// materializing the running join and re-submitting SQL for the remainder
// of the query.
//
// Quick start:
//
//	db := midquery.Open(midquery.Options{})
//	db.LoadTPCD(midquery.TPCDConfig{SF: 0.01})
//	res, err := db.Exec(midquery.Q("Q5").SQL, midquery.ExecOptions{Mode: midquery.ReoptFull})
//
// Execution time is reported in simulated cost units (page I/Os plus
// weighted tuple CPU), which makes runs deterministic and directly
// comparable with the optimizer's estimates — see DESIGN.md for the
// substitution rationale.
//
// The package is a thin façade: a DB owns one session.Manager and a
// default Session, and Exec, Explain, ExplainAnalyze, Prepare and
// Prepared.Exec are an options mapping plus one call into
// internal/session — the same path cmd/mqr-server serves, minus the
// memory broker (library queries run under a private fixed MemBudget).
package midquery

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/parametric"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// Re-exported value and schema types: these are the currency of query
// results and table definitions.
type (
	// Value is one SQL value (integer, float, string, date, or NULL).
	Value = types.Value
	// Tuple is one result row.
	Tuple = types.Tuple
	// Column describes one table column.
	Column = types.Column
	// Kind is a SQL type tag.
	Kind = types.Kind
	// Stats reports what the re-optimizing dispatcher did for a query, one
	// Decision per checkpoint; its broker traffic is Result.Broker.
	Stats = reopt.Stats
	// HistFamily selects a histogram construction algorithm.
	HistFamily = histogram.Family
	// TPCDConfig controls the TPC-D-style data generator.
	TPCDConfig = tpcd.Config
	// TPCDQuery is one of the paper's benchmark queries.
	TPCDQuery = tpcd.Query
	// CostWeights maps physical events to simulated time units.
	CostWeights = storage.CostWeights
	// TraceEvent is one entry of a query's lifecycle event log
	// (ExecOptions.Trace).
	TraceEvent = obs.Event
)

// Value constructors and kind tags, re-exported for building tuples.
var (
	NewInt    = types.NewInt
	NewFloat  = types.NewFloat
	NewString = types.NewString
	NewDate   = types.NewDate
	Null      = types.Null
)

// SQL type kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindDate   = types.KindDate
)

// Histogram families for Analyze and AnalyzeOptions.
const (
	EquiWidth = histogram.EquiWidth
	EquiDepth = histogram.EquiDepth
	MaxDiff   = histogram.MaxDiff
	EndBiased = histogram.EndBiased
)

// Mode selects how much of Dynamic Re-Optimization runs for a query.
type Mode = reopt.Mode

// Re-optimization modes (Figure 10 compares ReoptOff with ReoptFull;
// Figure 11 isolates the memory-only and plan-only variants).
const (
	ReoptOff        = reopt.ModeOff
	ReoptMemoryOnly = reopt.ModeMemoryOnly
	ReoptPlanOnly   = reopt.ModePlanOnly
	ReoptFull       = reopt.ModeFull
	ReoptRestart    = reopt.ModeRestart
)

// Options configures a database instance.
type Options struct {
	// BufferPoolPages is the shared buffer pool size in 8 KB pages
	// (default 4096 = 32 MB, the paper's per-node pool).
	BufferPoolPages int
	// Weights prices simulated I/O and CPU (zero value = defaults).
	Weights CostWeights
}

// DB is an in-process database instance over a simulated disk.
type DB struct {
	cat   *catalog.Catalog
	pool  *storage.BufferPool
	meter *storage.CostMeter

	// mgr is the engine every statement runs through; sess is the DB's
	// default session, which holds the one explicit transaction a
	// DB-level client may keep open between Exec calls (BEGIN …
	// COMMIT/ROLLBACK). The manager caches no plans: the library's bulk
	// Insert moves table sizes without bumping any statistics version, so
	// every Exec optimizes against the catalog as it is now.
	mgr  *session.Manager
	sess *session.Session
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.BufferPoolPages <= 0 {
		opts.BufferPoolPages = 4096
	}
	zero := CostWeights{}
	if opts.Weights == zero {
		opts.Weights = storage.DefaultCostWeights()
	}
	meter := storage.NewCostMeter(opts.Weights)
	pool := storage.NewBufferPool(storage.NewDisk(meter), opts.BufferPoolPages)
	cat := catalog.New(pool)
	mgr := session.NewManager(cat, pool, meter, session.Config{PlanCacheSize: -1})
	return &DB{cat: cat, pool: pool, meter: meter, mgr: mgr, sess: mgr.Session()}
}

// Catalog exposes the underlying catalog for advanced use (the examples
// and benchmarks stay on the DB API).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Cost returns the total simulated cost charged so far.
func (db *DB) Cost() float64 { return db.meter.Cost() }

// ResetCost zeroes the cost meter (between benchmark phases).
func (db *DB) ResetCost() { db.meter.Reset() }

// DropCaches empties the buffer pool so the next query runs cold. The
// benchmark harness calls it before every measured execution so that
// run-order effects cannot masquerade as re-optimization effects.
func (db *DB) DropCaches() { db.pool.EvictAll() }

// CreateTable registers a new table.
func (db *DB) CreateTable(name string, cols ...Column) error {
	_, err := db.cat.CreateTable(name, types.NewSchema(cols...))
	return err
}

// Insert appends one row of Go values (int/int64, float64, string,
// Value) to a table. A value of another kind than its column's is
// converted or refused as SQL INSERT converts or refuses it.
func (db *DB) Insert(table string, values ...any) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	cols := t.Schema.Columns
	tup := make(Tuple, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case int:
			tup[i] = types.NewInt(int64(x))
		case int64:
			tup[i] = types.NewInt(x)
		case float64:
			tup[i] = types.NewFloat(x)
		case string:
			tup[i] = types.NewString(x)
		case Value:
			tup[i] = x
		case nil:
			tup[i] = types.Null()
		default:
			return fmt.Errorf("midquery: cannot convert %T to a SQL value", v)
		}
		if i < len(cols) { // a wrong arity is the catalog's error
			if tup[i], err = types.Coerce(tup[i], cols[i].Kind); err != nil {
				return fmt.Errorf("midquery: column %s: %w", cols[i].Name, err)
			}
		}
	}
	return t.Insert(tup)
}

// CreateIndex builds a B+tree index on one column, waiting for the DB's
// running statements to drain first.
func (db *DB) CreateIndex(table, column string) error {
	return db.mgr.CreateIndex(table, column)
}

// Analyze refreshes a table's statistics with the given histogram
// family, waiting for the DB's running statements to drain first.
func (db *DB) Analyze(table string, family HistFamily) error {
	return db.mgr.Analyze(table, family)
}

// LoadTPCD generates and loads the TPC-D-style dataset (§3.2).
func (db *DB) LoadTPCD(cfg TPCDConfig) error {
	return tpcd.Load(db.cat, cfg)
}

// TPCDQueries returns the paper's seven benchmark queries.
func TPCDQueries() []TPCDQuery { return tpcd.Queries() }

// Q fetches one benchmark query by name ("Q1", "Q3", ...), panicking on
// unknown names (it is a test/example convenience).
func Q(name string) TPCDQuery {
	q, err := tpcd.ByName(name)
	if err != nil {
		panic(err)
	}
	return q
}

// Multi-query server mode: a SessionManager shares this database among
// concurrent sessions, brokering operator memory from one pool and
// caching optimized plans (see internal/session and internal/server).
type (
	// SessionManager coordinates concurrent sessions over one engine.
	SessionManager = session.Manager
	// SessionConfig sizes the shared memory pool and plan cache.
	SessionConfig = session.Config
)

// NewSessionManager wraps the database for concurrent multi-query
// execution. Queries submitted through the manager's sessions are
// admitted against a shared memory broker instead of each assuming a
// private MemBudget; cmd/mqr-server serves one of these over HTTP.
func (db *DB) NewSessionManager(cfg SessionConfig) *SessionManager {
	return session.NewManager(db.cat, db.pool, db.meter, cfg)
}

// ExecOptions tunes one query execution.
type ExecOptions struct {
	// Mode selects the re-optimization variant (default ReoptOff).
	Mode Mode
	// Params binds host variables (":name" in the SQL).
	Params map[string]Value
	// MemBudget is the per-query operator memory in bytes (default
	// 32 MB). Distinct from the buffer pool.
	MemBudget float64
	// Mu, Theta1, Theta2 override the paper's μ=0.05, θ₁=0.05, θ₂=0.2.
	Mu, Theta1, Theta2 float64
	// HistFamily for run-time histograms (default MaxDiff).
	HistFamily HistFamily
	// SpliceSwitch uses the Figure 5 suspend-and-splice strategy for
	// plan switches instead of Figure 6's materialize-and-resubmit
	// (falls back to materialization when splicing is impossible).
	SpliceSwitch bool
	// DisableIndexJoin restricts plans to hash joins (ablations).
	DisableIndexJoin bool
	Seed             int64
	// Trace records the query's lifecycle events — collector reports,
	// checkpoint decisions, memory re-allocations, plan switches — into
	// Result.Trace. The session records the events either way (they
	// feed mqr.trace); the flag attaches the query's own log.
	Trace bool
	// Timeout bounds the query's wall-clock time; 0 means no deadline.
	// Expiry aborts the query mid-execution (operators poll the
	// deadline between tuples), drops its temp tables, and surfaces
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Context aborts the query when cancelled (optional; Timeout
	// layers a deadline on top of it).
	Context context.Context
	// Parallel is the intra-query degree of parallelism: plan segments
	// between checkpoint boundaries are split across this many worker
	// goroutines by exchange operators, and their per-partition
	// statistics are merged back into single collector reports at each
	// gather. Values below 2 run serially.
	Parallel int
}

// sessionOptions maps the public options onto the session's. The
// library's fixed per-query budget travels as Options.MemBudget, so the
// query plans and runs under it with no broker lease.
func (o ExecOptions) sessionOptions() session.Options {
	so := session.Options{
		Mode:             o.Mode,
		Params:           o.Params,
		MemBudget:        o.MemBudget,
		Mu:               o.Mu,
		Theta1:           o.Theta1,
		Theta2:           o.Theta2,
		HistFamily:       o.HistFamily, // zero value is MaxDiff, the default
		SpliceSwitch:     o.SpliceSwitch,
		DisableIndexJoin: o.DisableIndexJoin,
		Seed:             o.Seed,
		Trace:            o.Trace,
		Timeout:          o.Timeout,
		Parallel:         o.Parallel,
	}
	if so.MemBudget <= 0 {
		so.MemBudget = defaultMemBudget
	}
	return so
}

// defaultMemBudget is the per-query operator memory when
// ExecOptions.MemBudget is unset.
const defaultMemBudget = 32 << 20

// Result is one statement's outcome: Columns and Rows, the dispatcher's
// Stats, the simulated Cost, RowsAffected for DML, and Plan / Trace when
// asked for.
type Result = session.Result

// Exec compiles and runs one SQL statement: SELECT queries go through
// the re-optimizing dispatcher; INSERT/UPDATE/DELETE execute under
// snapshot-isolation MVCC (autocommitting unless a BEGIN is open); and
// BEGIN/COMMIT/ROLLBACK manage the DB's explicit transaction.
func (db *DB) Exec(src string, opts ExecOptions) (*Result, error) {
	return db.sess.Exec(opts.Context, src, opts.sessionOptions())
}

// Vacuum removes dead row versions no live snapshot can see, returning
// how many were reclaimed. Safe to run concurrently with queries.
func (db *DB) Vacuum() (int64, error) { return db.cat.Vacuum() }

// Explain compiles a query and returns its annotated plan text — each
// operator with its estimated rows, output size, cumulative cost, and
// memory demands — with statistics collectors inserted when mode is not
// ReoptOff. Nothing is executed.
func (db *DB) Explain(src string, opts ExecOptions) (string, error) {
	return db.sess.Explain(src, opts.sessionOptions())
}

// ExplainAnalyze executes the query with per-operator instrumentation
// and returns the Result with Plan holding the annotated rendering:
// optimizer estimates next to actual rows, per-operator time (simulated
// cost units), and peak memory; when a mid-query plan switch happened,
// each re-optimized remainder plan follows the initial one, with the
// temp-table splice point marked "[re-optimized here]".
func (db *DB) ExplainAnalyze(src string, opts ExecOptions) (*Result, error) {
	so := opts.sessionOptions()
	so.Explain = true
	return db.sess.Exec(opts.Context, src, so)
}

// Prepared is a parametric plan: candidate plans enumerated across
// anticipated host-variable selectivity scenarios at prepare time, one
// of which is chosen per execution from the actual bindings — the
// parametric/dynamic hybrid the paper proposes as future work (§4).
type Prepared struct {
	db   *DB
	p    *parametric.Prepared
	opts ExecOptions
}

// Prepare compiles a parametric plan for a statement with host
// variables. The options' Mode governs whether executions also run
// under Dynamic Re-Optimization (the full hybrid) or as-is.
func (db *DB) Prepare(src string, opts ExecOptions) (*Prepared, error) {
	p, err := db.sess.Prepare(src, opts.sessionOptions())
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, p: p, opts: opts}, nil
}

// Candidates returns the structural signatures of the parametric plan's
// candidates, with the scenarios that produced each.
func (pq *Prepared) Candidates() []string {
	out := make([]string, len(pq.p.Candidates))
	for i, c := range pq.p.Candidates {
		out[i] = fmt.Sprintf("%v -> %s", c.Scenarios, c.Shape)
	}
	return out
}

// Exec chooses the candidate nearest the actual bindings' selectivity
// and executes it through the re-optimizing dispatcher, under the
// options given to Prepare (snapshot, Context and Timeout included).
func (pq *Prepared) Exec(params map[string]Value) (*Result, error) {
	pre, scenario, err := pq.p.Choose(plan.Params(params))
	if err != nil {
		return nil, err
	}
	so := pq.opts.sessionOptions()
	so.Params = params
	res, err := pq.db.sess.ExecPlan(pq.opts.Context, pre, so)
	if err != nil {
		return nil, err
	}
	res.Stats.Decisions = append([]reopt.Decision{{Step: -1, Cause: reopt.CauseParametric,
		EstRows: scenario, ObsRows: pq.p.ActualSelectivity(plan.Params(params))}},
		res.Stats.Decisions...)
	return res, nil
}
