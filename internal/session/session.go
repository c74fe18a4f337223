// Package session turns the single-query engine into a concurrent
// multi-query one. A Manager owns the shared resources — catalog,
// buffer pool, cost meter, the global memory Broker, and the plan cache
// — and hands out Sessions whose Exec calls run concurrently against
// them.
//
// Operator memory is the coordination point (the paper's §2.3 motivates
// mid-query re-allocation precisely by the multi-query setting): each
// query's plan-derived demands are admitted against one shared pool, a
// query whose minimum does not fit queues FIFO, and the re-optimizing
// dispatcher returns surplus grants mid-query so queued queries start
// before the donor finishes.
//
// Statements that change statistics (ANALYZE, index creation) quiesce
// the engine: they take the schema lock exclusively while every Exec
// holds it shared for the duration of its query.
package session

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/memmgr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/parametric"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/reopt"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tenant"
	"repro/internal/types"
)

// maxPreemptResumes caps how many times one query may be suspended at
// a checkpoint before its lease opts out of victim selection.
const maxPreemptResumes = 8

// Config sizes the shared multi-query resources.
type Config struct {
	// MemPoolBytes is the broker's shared operator-memory pool
	// (default 64 MB). Queries queue when the sum of admitted
	// minimums would exceed it.
	MemPoolBytes float64
	// MemBudget is the per-query optimize-time budget (default 32 MB,
	// capped at the pool): the optimizer shapes plans assuming this
	// much; the broker grants what is actually free at admission.
	MemBudget float64
	// PlanCacheSize bounds the plan cache (default 256 entries;
	// negative disables caching).
	PlanCacheSize int
}

// Manager owns one engine instance shared by all sessions.
type Manager struct {
	cat    *catalog.Catalog
	pool   *storage.BufferPool
	meter  *storage.CostMeter
	broker *memmgr.Broker
	cache  *plancache.Cache
	cfg    Config

	// schemaMu quiesces DDL/ANALYZE against running queries: Exec
	// holds it shared for the whole query, Analyze takes it
	// exclusively. Coarse, but statistics refreshes are rare and the
	// alternative is per-table latching through every operator.
	schemaMu sync.RWMutex

	// running maps each in-flight query's tag to its cancel function
	// and (once admitted) its broker lease, so Cancel can abort it by
	// name (the POST /cancel path) and Preempt can request a
	// checkpoint suspension. Guarded by runningMu, not schemaMu:
	// cancels must land while queries hold the schema lock.
	runningMu sync.Mutex
	running   map[string]*runningQuery

	sessions atomic.Int64
	queries  atomic.Int64

	reg   *obs.Registry
	em    *obs.EngineMetrics
	start time.Time

	// prog tracks every in-flight query's live progress; engTrace is
	// the always-on engine-wide event ring every per-query trace tees
	// into (the mqr.queries/mqr.trace system tables read them).
	prog     *obs.ProgressRegistry
	engTrace *obs.Trace

	// log receives the slow-query warnings; slowQueryNanos is the
	// threshold (0 disables).
	log            *slog.Logger
	slowQueryNanos atomic.Int64
}

// NewManager wraps an engine's shared state for concurrent use.
func NewManager(cat *catalog.Catalog, pool *storage.BufferPool, meter *storage.CostMeter, cfg Config) *Manager {
	if cfg.MemPoolBytes <= 0 {
		cfg.MemPoolBytes = 64 << 20
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 32 << 20
	}
	if cfg.MemBudget > cfg.MemPoolBytes {
		cfg.MemBudget = cfg.MemPoolBytes
	}
	m := &Manager{
		cat:      cat,
		pool:     pool,
		meter:    meter,
		broker:   memmgr.NewBroker(cfg.MemPoolBytes),
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		running:  make(map[string]*runningQuery),
		start:    time.Now(),
		prog:     obs.NewProgressRegistry(),
		engTrace: obs.NewTrace(1024),
		log:      slog.Default(),
	}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = 256
		}
		m.cache = plancache.New(size, cat.SchemaVersion, cat.TableVersion)
	}
	m.em = obs.NewEngineMetrics(m.reg)
	m.registerResourceMetrics()
	m.registerIntrospection()
	return m
}

// SetLogger replaces the slow-query logger (defaults to slog.Default).
func (m *Manager) SetLogger(l *slog.Logger) {
	if l != nil {
		m.log = l
	}
}

// SetSlowQueryThreshold sets the manager-wide slow-query threshold.
// Queries (and DML statements) slower than d produce a structured
// warning on the manager's logger; 0 disables.
func (m *Manager) SetSlowQueryThreshold(d time.Duration) {
	m.slowQueryNanos.Store(int64(d))
}

// Progress exposes the live-progress registry (the /progress endpoint
// and tests read it).
func (m *Manager) Progress() *obs.ProgressRegistry { return m.prog }

// EngineTrace exposes the engine-wide trace ring behind mqr.trace.
func (m *Manager) EngineTrace() *obs.Trace { return m.engTrace }

// registerResourceMetrics exposes the broker pool and plan cache as
// function-backed gauges: the shared structures are already their own
// source of truth, so the registry reads them at scrape time instead of
// mirroring every mutation.
func (m *Manager) registerResourceMetrics() {
	m.reg.NewGaugeFunc("broker_pool_bytes",
		"Total size of the shared operator-memory pool.",
		func() float64 { return m.broker.Stats().PoolBytes })
	m.reg.NewGaugeFunc("broker_available_bytes",
		"Operator memory currently unreserved in the broker pool.",
		func() float64 { return m.broker.Stats().AvailBytes })
	m.reg.NewGaugeFunc("broker_queue_depth",
		"Queries queued for memory admission right now.",
		func() float64 { return float64(m.broker.Stats().Waiting) })
	m.reg.NewCounterFunc("broker_admitted_total",
		"Queries admitted to the memory broker.",
		func() float64 { return float64(m.broker.Stats().Admitted) })
	m.reg.NewCounterFunc("broker_waits_total",
		"Admissions that had to queue for memory.",
		func() float64 { return float64(m.broker.Stats().Waits) })
	m.reg.NewCounterFunc("broker_wait_seconds_total",
		"Total wall-clock time queries spent queued for memory.",
		func() float64 { return float64(m.broker.Stats().WaitNanos) / 1e9 })
	m.reg.NewCounterFunc("broker_returned_bytes_total",
		"Surplus operator memory returned to the pool mid-query.",
		func() float64 { return m.broker.Stats().Returned })
	m.reg.NewCounterFunc("broker_grown_bytes_total",
		"Operator memory added to running leases mid-query.",
		func() float64 { return m.broker.Stats().Grown })
	m.reg.NewCounterFunc("broker_rejected_total",
		"Admissions refused because a tenant's queue bound was reached.",
		func() float64 { return float64(m.broker.Stats().Rejected) })
	m.reg.NewCounterFunc("broker_preempts_total",
		"Checkpoint-preemption requests issued to running leases.",
		func() float64 { return float64(m.broker.Stats().Preempts) })
	m.reg.NewGaugeFuncVec("mqr_broker_queue_depth",
		"Queries queued for memory admission right now, by tenant.", "tenant",
		func() map[string]float64 {
			depths := m.broker.QueueDepths()
			out := make(map[string]float64, len(depths))
			for ten, n := range depths {
				out[ten] = float64(n)
			}
			return out
		})
	m.reg.NewGaugeFuncVec("mqr_broker_held_bytes",
		"Operator memory held by running leases right now, by tenant.", "tenant",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, ts := range m.broker.TenantStats() {
				out[ts.Tenant] = ts.HeldBytes
			}
			return out
		})
	m.reg.NewCounterFunc("plancache_hits_total",
		"Plan-cache lookups served from the cache.",
		func() float64 { return float64(m.CacheStats().Hits) })
	m.reg.NewCounterFunc("plancache_misses_total",
		"Plan-cache lookups that had to optimize.",
		func() float64 { return float64(m.CacheStats().Misses) })
	m.reg.NewCounterFunc("plancache_invalidations_total",
		"Cached plans discarded because statistics changed.",
		func() float64 { return float64(m.CacheStats().Invalidations) })
	m.reg.NewCounterFunc("plancache_evictions_total",
		"Cached plans evicted by capacity.",
		func() float64 { return float64(m.CacheStats().Evictions) })
	m.reg.NewCounterFunc("plancache_feedbacks_total",
		"Cached plans re-planned from the rows a run of the statement observed.",
		func() float64 { return float64(m.CacheStats().Feedbacks) })
	m.reg.NewGaugeFunc("plancache_entries",
		"Plans resident in the cache right now.",
		func() float64 { return float64(m.CacheStats().Entries) })
}

// Broker exposes the shared memory broker (status endpoints, tests).
func (m *Manager) Broker() *memmgr.Broker { return m.broker }

// SetTenantConfig installs one tenant's service class (weight,
// priority, quota, queue bound) on the broker's registry.
func (m *Manager) SetTenantConfig(name string, cfg tenant.Config) {
	m.broker.Tenants().Set(name, cfg)
}

// TenantConfig returns one tenant's service class.
func (m *Manager) TenantConfig(name string) tenant.Config {
	return m.broker.Tenants().Get(name)
}

// TenantStats snapshots every tenant's scheduling state and traffic.
func (m *Manager) TenantStats() []memmgr.TenantStats {
	return m.broker.TenantStats()
}

// runningQuery is one in-flight query's control handles: the cancel
// function of its per-query context and, between admission and release,
// its broker lease.
type runningQuery struct {
	cancel context.CancelFunc
	lease  *memmgr.Lease
}

// Cancel aborts the running query with the given tag (Result.Query /
// the tags listed by Running). It returns whether a query by that tag
// was in flight; the query itself unwinds asynchronously and reports
// context.Canceled to its own caller.
func (m *Manager) Cancel(tag string) bool {
	m.runningMu.Lock()
	rq, ok := m.running[tag]
	m.runningMu.Unlock()
	if ok {
		rq.cancel()
	}
	return ok
}

// Preempt requests a checkpoint suspension of the running query with
// the given tag: its dispatcher aborts at the next re-optimization
// checkpoint, releases the brokered lease, and re-admits the query
// through the fair-share queue. Returns whether a request was newly
// made (false if the tag is unknown, the query is not yet admitted, or
// a request is already pending).
func (m *Manager) Preempt(tag string) bool {
	m.runningMu.Lock()
	rq, ok := m.running[tag]
	var lease *memmgr.Lease
	if ok {
		lease = rq.lease
	}
	m.runningMu.Unlock()
	if lease == nil {
		return false
	}
	return lease.RequestPreempt()
}

// Running lists the tags of queries currently in flight, sorted.
func (m *Manager) Running() []string {
	m.runningMu.Lock()
	defer m.runningMu.Unlock()
	tags := make([]string, 0, len(m.running))
	for t := range m.running {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

func (m *Manager) trackRunning(tag string, cancel context.CancelFunc) {
	m.runningMu.Lock()
	m.running[tag] = &runningQuery{cancel: cancel}
	m.runningMu.Unlock()
}

// setRunningLease publishes (or clears) the query's current broker
// lease so Preempt can find it. Called once per admission — a
// preempted query re-admits under a fresh lease.
func (m *Manager) setRunningLease(tag string, lease *memmgr.Lease) {
	m.runningMu.Lock()
	if rq, ok := m.running[tag]; ok {
		rq.lease = lease
	}
	m.runningMu.Unlock()
}

func (m *Manager) untrackRunning(tag string) {
	m.runningMu.Lock()
	delete(m.running, tag)
	m.runningMu.Unlock()
}

// CacheStats snapshots plan-cache traffic (zero value when disabled).
func (m *Manager) CacheStats() plancache.Stats {
	if m.cache == nil {
		return plancache.Stats{}
	}
	return m.cache.Stats()
}

// Catalog returns the shared catalog.
func (m *Manager) Catalog() *catalog.Catalog { return m.cat }

// Analyze refreshes a table's statistics under the exclusive schema
// lock, waiting for running queries to drain and blocking new ones
// until the histograms are consistent again. The statistics-version
// bump invalidates cached plans lazily.
func (m *Manager) Analyze(table string, family histogram.Family) error {
	m.schemaMu.Lock()
	defer m.schemaMu.Unlock()
	return m.cat.Analyze(table, catalog.AnalyzeOptions{Family: family})
}

// CreateIndex builds a B+tree index on one column under the exclusive
// schema lock, quiescing the engine the same way Analyze does. The
// schema-version bump invalidates cached plans lazily.
func (m *Manager) CreateIndex(table, column string) error {
	m.schemaMu.Lock()
	defer m.schemaMu.Unlock()
	return m.cat.CreateIndex(table, column)
}

// Session is one client's handle on the shared engine. Sessions are
// cheap; a session's Exec calls may themselves run concurrently (each
// query gets its own tag and lease). A session additionally carries at
// most one open explicit transaction (BEGIN … COMMIT/ROLLBACK); DML
// outside an explicit transaction autocommits.
type Session struct {
	m  *Manager
	id int64

	// tenant is the session's default service class; Options.Tenant
	// overrides it per query. Set it before the session's first Exec
	// (the server does so at /session creation) — it is not
	// synchronized against concurrent queries.
	tenant string

	// txnMu guards txn. Concurrent Execs on one session are legal for
	// reads; interleaving writes inside one explicit transaction from
	// multiple goroutines is the caller's own hazard, but the session
	// state itself stays consistent.
	txnMu sync.Mutex
	txn   *catalog.Txn
}

// Session opens a new session.
func (m *Manager) Session() *Session {
	return &Session{m: m, id: m.sessions.Add(1)}
}

// ID returns the session's engine-unique id.
func (s *Session) ID() int64 { return s.id }

// SetTenant installs the session's default tenant. Call before the
// session's first Exec.
func (s *Session) SetTenant(name string) { s.tenant = name }

// Tenant returns the session's default tenant name (canonicalized).
func (s *Session) Tenant() string { return tenant.Canonical(s.tenant) }

// Options tunes one query execution (the top-level ExecOptions maps onto
// it field for field).
type Options struct {
	Mode   reopt.Mode
	Params map[string]types.Value
	// MemBudget, when positive, is a private operator-memory budget in
	// bytes: the query is optimized and run under exactly this much, with
	// no broker lease, no admission wait and no preemption — the fixed
	// per-query budget of the paper's single-query experiments, which the
	// library façade always sets. Zero (the server's setting) takes memory
	// from the shared broker pool instead.
	MemBudget          float64
	Mu, Theta1, Theta2 float64
	// Tenant names the service class the query's memory admission
	// queues under (weights, quotas, priorities are configured on the
	// broker's tenant registry). Empty defers to the session's default
	// tenant, then to tenant.Default.
	Tenant           string
	HistFamily       histogram.Family
	SpliceSwitch     bool
	DisableIndexJoin bool
	Seed             int64
	// NoCache bypasses the plan cache for this statement.
	NoCache bool
	// Explain runs the query under EXPLAIN ANALYZE instrumentation and
	// attaches the annotated plan rendering to the Result.
	Explain bool
	// Trace records the query's lifecycle events (collector reports,
	// checkpoint decisions, re-allocations, plan switches) into the
	// Result.
	Trace bool
	// Timeout bounds the query's wall-clock time, covering both the
	// wait for memory admission and execution; 0 means no deadline.
	// Expiry surfaces as context.DeadlineExceeded.
	Timeout time.Duration
	// NoProgress disables live-progress tracking for this query: no
	// ProgressRegistry entry and no mqr.queries row, and — unless
	// Explain needs them — no per-operator counters. The overhead
	// benchmark uses it as its baseline.
	NoProgress bool
	// Parallel is the intra-query degree of parallelism: plan segments
	// between checkpoint boundaries run on this many worker goroutines
	// behind exchange operators. Values below 2 run serially.
	Parallel int
	// CheckpointHook, when non-nil, runs at the start of every
	// re-optimization checkpoint with the step index — a deterministic
	// interleaving seam the fuzz harness uses to commit concurrent
	// writes at an exact decision point.
	CheckpointHook func(step int)
}

// Result is one query's outcome, extending the single-query result with
// the multi-query accounting.
type Result struct {
	Columns []string
	Rows    []types.Tuple
	// Stats reports the dispatcher's re-optimization activity; non-nil
	// and empty for statements that never reach the dispatcher (DML,
	// BEGIN/COMMIT/ROLLBACK).
	Stats *reopt.Stats
	// Cost is the simulated time charged to the statement's own meter:
	// its reads, the writes back of pages it dirtied and its CPU, and no
	// other statement's, however many run beside it.
	Cost float64
	// Query is the engine-unique tag ("s3_q17") the query ran under —
	// the same tag appears in broker traces and temp-table names.
	Query string
	// Tenant is the service class the query's admission ran under.
	Tenant string
	// Preempted counts checkpoint preemptions the query survived: each
	// one released its lease at a re-optimization checkpoint, re-queued
	// it for admission, and re-executed under the same snapshot.
	Preempted int
	// RowsAffected is the number of rows a DML statement wrote (for
	// COMMIT, the whole transaction's count). Zero for queries.
	RowsAffected int64
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// FedBack reports whether the query started from a plan re-planned
	// on the rows an earlier run of the statement observed.
	FedBack bool
	// Broker is the query's traffic against the shared memory pool.
	Broker memmgr.LeaseStats
	// Plan is the EXPLAIN ANALYZE rendering (Options.Explain only).
	Plan string
	// Trace is the query's event log (Options.Trace only).
	Trace []obs.Event
	// TraceDropped counts events the query's trace ring evicted — when
	// nonzero, Trace (and the mqr.trace tee) is missing its oldest
	// entries.
	TraceDropped int
}

// Exec compiles (or fetches from the plan cache) and runs one SQL
// query, admitting its memory demands against the shared broker pool.
// The context cancels both the wait for admission and execution itself;
// Options.Timeout adds a deadline on top of it.
//
// Exec is also the per-query fault boundary: a panic anywhere in the
// query (a mistyped Value accessor in an expression, an operator bug)
// is recovered here and surfaced as an ordinary error. The panic
// unwinds through exec's deferred cleanup first, so temp tables,
// leases, and the schema lock are all released and the session stays
// usable.
func (s *Session) Exec(ctx context.Context, src string, opts Options) (r *Result, err error) {
	defer s.endQuery(&r, &err)
	return s.exec(ctx, src, nil, opts)
}

// ExecPlan runs an already-optimized SELECT plan — the parametric
// hybrid's candidate, chosen at bind time — through the same path as
// Exec: snapshot, admission, the re-optimizing dispatcher, result
// assembly. The plan is consumed. If the query is preempted at a
// checkpoint it resumes on a plan the regular optimizer produces.
func (s *Session) ExecPlan(ctx context.Context, pre *optimizer.Result, opts Options) (r *Result, err error) {
	defer s.endQuery(&r, &err)
	return s.exec(ctx, "", pre, opts)
}

// endQuery is the deferred tail of every entry point: it turns a panic
// into the query's error and counts failed queries.
func (s *Session) endQuery(r **Result, err *error) {
	if p := recover(); p != nil {
		*r, *err = nil, fmt.Errorf("query panic: %v", p)
	}
	if *err != nil {
		s.m.em.Queries.Inc()
		s.m.em.QueryErrors.Inc()
		if errors.Is(*err, context.Canceled) || errors.Is(*err, context.DeadlineExceeded) {
			s.m.em.QueriesCancelled.Inc()
		}
	}
}

// exec runs one statement: src is parsed and routed by statement kind,
// unless pre carries a SELECT plan that is already optimized.
func (s *Session) exec(ctx context.Context, src string, pre *optimizer.Result, opts Options) (*Result, error) {
	m := s.m
	tag := fmt.Sprintf("s%d_q%d", s.id, m.queries.Add(1))

	// One context governs the whole query — admission wait, operator
	// cancellation checks, dispatcher checkpoints. It layers the
	// caller's context, the optional deadline, and the Cancel-by-tag
	// registry.
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	m.trackRunning(tag, cancel)
	defer m.untrackRunning(tag)

	m.schemaMu.RLock()
	defer m.schemaMu.RUnlock()

	if pre != nil {
		return s.execSelect(ctx, pre.Query.Stmt, pre, opts, tag)
	}
	stmt, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return s.execSelect(ctx, st, nil, opts, tag)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return s.execDML(ctx, st, opts, tag)
	case *sql.BeginStmt:
		return s.beginTxn(tag)
	case *sql.CommitStmt:
		return s.commitTxn(tag)
	case *sql.RollbackStmt:
		return s.rollbackTxn(tag)
	}
	return nil, fmt.Errorf("session: unsupported statement %T", stmt)
}

// Explain compiles a query the way Exec would — same optimizer entry,
// collectors, grants and exchanges for the given options — and returns
// the annotated plan text. Nothing is executed and nothing is admitted.
func (s *Session) Explain(src string, opts Options) (string, error) {
	s.m.schemaMu.RLock()
	defer s.m.schemaMu.RUnlock()
	res, err := reopt.New(s.m.cat, s.dispatcherConfig(opts, nil, "")).EstimateOnly(src)
	if err != nil {
		return "", err
	}
	return obs.FormatPlan(res.Root), nil
}

// Prepare compiles a parametric plan (the paper's §4 hybrid): one
// candidate per anticipated host-variable selectivity, each planned by
// the optimizer Exec would use under opts. ExecPlan runs the candidate
// the plan's Choose picks for the actual bindings.
func (s *Session) Prepare(src string, opts Options) (*parametric.Prepared, error) {
	s.m.schemaMu.RLock()
	defer s.m.schemaMu.RUnlock()
	return parametric.Prepare(s.m.cat, src, reopt.New(s.m.cat, s.dispatcherConfig(opts, nil, "")).Optimizer(), nil)
}

// stmtRun is what every SELECT and DML statement sets up the same way:
// its start time, its trace ring (always on, teeing into the engine-wide
// ring behind mqr.trace), its meter (a tributary of the engine's, flushed
// at end), its bound parameters, and the session's open explicit
// transaction, nil outside one.
type stmtRun struct {
	m        *Manager
	tag, sql string
	opts     Options
	start    time.Time
	tr       *obs.Trace
	meter    *storage.CostMeter
	params   plan.Params
	tx       *catalog.Txn
	qp       *obs.Progress // a query's progress record; nil for DML
}

// begin opens one statement with a trace ring of traceCap events.
func (s *Session) begin(stmt sql.Stmt, opts Options, tag string, traceCap int) *stmtRun {
	r := &stmtRun{m: s.m, tag: tag, sql: stmt.SQL(), opts: opts, start: time.Now(),
		tr: obs.NewTrace(traceCap), meter: s.m.meter.Tributary(), params: make(plan.Params, len(opts.Params))}
	r.tr.SetQuery(tag)
	r.tr.SetForward(s.m.engTrace)
	maps.Copy(r.params, opts.Params)
	s.txnMu.Lock()
	r.tx = s.txn
	s.txnMu.Unlock()
	return r
}

// end flushes the statement's meter, records its duration and emits the
// structured slow-query warning when it exceeded the manager's threshold
// (0 disables). Every exit path defers it first, so it runs last.
func (r *stmtRun) end() {
	r.meter.Flush()
	m, dur := r.m, time.Since(r.start)
	m.em.QueryDuration.Observe(dur.Seconds())
	thr := time.Duration(m.slowQueryNanos.Load())
	if thr <= 0 || dur < thr {
		return
	}
	m.log.Warn("slow query",
		"query", r.tag,
		"sql", r.sql,
		"duration", dur,
		"switches", r.qp.Switches(),
		"spill_bytes", r.qp.SpillBytes(),
	)
}

// result completes a successful statement's Result: its tag, the events
// its trace ring evicted (also counted engine-wide), and the trace
// itself when asked for.
func (r *stmtRun) result(out *Result) *Result {
	out.Query = r.tag
	out.TraceDropped = r.tr.Dropped()
	if out.TraceDropped > 0 {
		r.m.em.TraceDropped.Add(float64(out.TraceDropped))
	}
	if r.opts.Trace {
		out.Trace = r.tr.Events()
	}
	return out
}

// execSelect runs one query under the broker's memory admission (or its
// private Options.MemBudget) and the re-optimizing dispatcher; pre, when
// non-nil, is stmt's plan, already optimized. Reads execute under a
// snapshot: the open explicit transaction's if one exists (so a
// transaction reads its own uncommitted writes), otherwise a fresh read
// snapshot registered with the transaction manager so concurrent
// committers stay invisible and the garbage collector keeps every
// version the query can still see.
func (s *Session) execSelect(ctx context.Context, stmt *sql.SelectStmt, pre *optimizer.Result, opts Options, tag string) (*Result, error) {
	m := s.m
	ten := tenant.Canonical(opts.Tenant)
	if opts.Tenant == "" {
		ten = s.Tenant()
	}
	r := s.begin(stmt, opts, tag, obs.DefaultTraceCap)
	defer r.end()
	tr := r.tr
	res, hit := pre, false
	var tk plancache.Ticket
	if res == nil {
		var err error
		if res, hit, tk, err = s.plan(stmt, opts); err != nil {
			return nil, err
		}
	}
	fedBack := res.Overlay != nil
	// Column names come from the pristine root: dispatch may wrap or
	// replace it (collector insertion, plan switches).
	sch := res.Root.Schema()
	cols := make([]string, sch.Len())
	for i, c := range sch.Columns {
		cols[i] = c.Name
	}

	// EXPLAIN ANALYZE reads the query's progress record, timed; under
	// NoProgress that record is built but not registered.
	if opts.Explain || !opts.NoProgress {
		r.qp = obs.NewProgress(tag, s.id, r.sql, opts.Explain)
		r.qp.Tenant = ten
		r.qp.FedBack = fedBack
		r.qp.Meter = r.meter
	}
	qp := r.qp
	if !opts.NoProgress {
		m.prog.Start(qp)
		defer m.prog.Finish(qp)
	}
	// The snapshot is acquired once, before the first admission, and
	// survives checkpoint preemption: a preempted-then-resumed query
	// re-reads the same versions, so its answer is byte-identical to an
	// uninterrupted run no matter what commits while it was parked.
	var snap *storage.TxnSnapshot
	if r.tx != nil {
		snap = r.tx.Snapshot()
	} else {
		rd := m.cat.BeginRead()
		defer rd.End()
		snap = rd.Snapshot()
	}

	// Backstop for every exit path (error, cancel, panic unwinding to
	// Exec's recover): the current attempt's temp tables are dropped
	// before its lease is released.
	var lease *memmgr.Lease
	var d *reopt.Dispatcher
	defer func() {
		if d != nil {
			d.Cleanup()
		}
		if lease != nil {
			lease.Release()
		}
	}()

	preempted := 0
	var rows []types.Tuple
	var st *reopt.Stats
	var mu float64
	var err error
	for {
		if opts.MemBudget <= 0 {
			min, max := memmgr.Demands(res.Root)
			waitStart := time.Now()
			lease, err = m.broker.AdmitTenant(ctx, ten, tag, min, max)
			wait := time.Since(waitStart).Seconds()
			m.em.BrokerWait.Observe(wait)
			m.em.BrokerWaitTenant.Observe(ten, wait)
			if err != nil {
				return nil, err
			}
			if preempted >= maxPreemptResumes {
				// A query can only be parked so many times; past the cap
				// its lease stops being a preemption victim so it is
				// guaranteed to finish.
				lease.MarkNonPreemptible()
			}
			m.setRunningLease(tag, lease)
		}
		cfg := s.dispatcherConfig(opts, lease, tag)
		cfg.Trace = tr
		mu = cfg.Mu
		d = reopt.New(m.cat, cfg)
		ectx := &exec.Ctx{Context: ctx, Pool: m.pool, Meter: r.meter, Params: r.params, Trace: tr, Snap: snap, Prog: qp}
		rows, st, err = d.RunPlan(res, r.params, ectx)
		if err == nil {
			break
		}
		if !errors.Is(err, memmgr.ErrPreempted) {
			return nil, err
		}
		// Checkpoint preemption: the dispatcher stopped at a segment
		// boundary because a higher-priority waiter claimed this
		// query's memory. Drop everything the attempt built — temp
		// tables first, then the whole lease (zero residue, fully
		// repaid broker) — then park in the fair-share admission queue
		// by re-admitting, and re-execute from a fresh plan under the
		// same snapshot.
		preempted++
		d.Cleanup()
		d = nil
		m.setRunningLease(tag, nil)
		lease.Release()
		lease = nil
		m.em.Preemptions.Inc()
		qp.RecordPreempt()
		if tr.Enabled() {
			tr.Emit("preempt", "suspended at checkpoint, re-queueing for admission",
				"tenant", ten, "resume", preempted)
		}
		res, _, tk, err = s.plan(stmt, opts)
		if err != nil {
			return nil, err
		}
	}
	// Inside an explicit transaction the snapshot sees the transaction's
	// own uncommitted writes, rows no other run would see.
	if r.tx == nil {
		s.learn(stmt, opts, tk, res.Overlay, st)
	}
	spent := r.meter.Snapshot()
	cost := spent.Cost()
	statCost := float64(spent.StatCPU) * spent.Weights.StatCPU
	m.em.RecordQuery(cost, statCost, mu,
		st.CollectorsInserted, st.Observations, st.MemReallocs,
		st.Considered(), st.PlanSwitches)
	out := &Result{
		Columns:   cols,
		Rows:      rows,
		Stats:     st,
		Cost:      cost,
		Tenant:    ten,
		Preempted: preempted,
		CacheHit:  hit,
		FedBack:   fedBack,
		Plan:      qp.Render(),
	}
	if lease != nil {
		out.Broker = lease.Stats()
	}
	return r.result(out), nil
}

// chooseTarget gives an UPDATE or DELETE the access path the optimizer
// chooses for its target table: the one a SELECT with its WHERE clause
// would read the table by.
func (s *Session) chooseTarget(node plan.Node, stmt sql.Stmt, opts Options) (err error) {
	o := func() *optimizer.Optimizer { return reopt.New(s.m.cat, s.dispatcherConfig(opts, nil, "")).Optimizer() }
	switch x := node.(type) {
	case *plan.Update:
		x.Key, err = o().Target(x.Table, stmt.(*sql.UpdateStmt).Where)
	case *plan.Delete:
		x.Key, err = o().Target(x.Table, stmt.(*sql.DeleteStmt).Where)
	}
	return err
}

// execDML plans and runs one write statement. Inside an explicit
// transaction the writes join it; otherwise the statement autocommits.
// Any error aborts the governing transaction — MVCC undo is physical
// and statement-level rollback would need per-statement savepoints —
// so an explicit transaction that hits an error (including a
// first-writer-wins conflict) is rolled back and closed.
func (s *Session) execDML(ctx context.Context, stmt sql.Stmt, opts Options, tag string) (*Result, error) {
	m := s.m
	r := s.begin(stmt, opts, tag, dmlTraceCap)
	defer r.end()
	node, err := plan.PlanDML(m.cat, stmt)
	if err != nil {
		return nil, err
	}
	if err := s.chooseTarget(node, stmt, opts); err != nil {
		return nil, err
	}
	tr, tx := r.tr, r.tx
	own := tx == nil
	if own {
		tx = m.cat.BeginTxn()
	}
	ectx := &exec.Ctx{Context: ctx, Pool: m.pool, Meter: r.meter, Params: r.params, Trace: tr, Txn: tx, Snap: tx.Snapshot()}
	n, err := exec.RunDML(node, ectx)
	if err != nil {
		tx.Abort()
		if !own {
			s.clearTxn(tx)
		}
		m.em.TxnsAborted.Inc()
		if errors.Is(err, storage.ErrWriteConflict) {
			m.em.WriteConflicts.Inc()
		}
		return nil, err
	}
	if own {
		rows := tx.Rows()
		tx.Commit()
		m.em.TxnsCommitted.Inc()
		m.em.RowsWritten.Add(float64(rows))
		if tr.Enabled() {
			tr.Emit("commit", "autocommit",
				"txn", int64(tx.ID()), "rows", rows, "stats_version", m.cat.StatsVersion())
		}
	}
	m.em.Queries.Inc()
	return r.result(&Result{
		Stats:        &reopt.Stats{},
		Cost:         r.meter.Cost(),
		RowsAffected: n,
	}), nil
}

// dmlTraceCap sizes the per-statement DML trace ring — writes emit a
// handful of events, so a small ring keeps the always-on tee cheap.
const dmlTraceCap = 64

// beginTxn opens the session's explicit transaction.
func (s *Session) beginTxn(tag string) (*Result, error) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	if s.txn != nil {
		return nil, errors.New("session: transaction already open")
	}
	s.txn = s.m.cat.BeginTxn()
	return &Result{Stats: &reopt.Stats{}, Query: tag}, nil
}

// commitTxn commits the session's explicit transaction. RowsAffected
// reports the transaction's total row versions written.
func (s *Session) commitTxn(tag string) (*Result, error) {
	s.txnMu.Lock()
	tx := s.txn
	s.txn = nil
	s.txnMu.Unlock()
	if tx == nil {
		return nil, errors.New("session: no transaction open")
	}
	rows := tx.Rows()
	tx.Commit()
	s.m.em.TxnsCommitted.Inc()
	s.m.em.RowsWritten.Add(float64(rows))
	return &Result{Stats: &reopt.Stats{}, Query: tag, RowsAffected: rows}, nil
}

// rollbackTxn aborts the session's explicit transaction, undoing its
// writes physically (inserted versions deleted, delete stamps cleared).
func (s *Session) rollbackTxn(tag string) (*Result, error) {
	s.txnMu.Lock()
	tx := s.txn
	s.txn = nil
	s.txnMu.Unlock()
	if tx == nil {
		return nil, errors.New("session: no transaction open")
	}
	err := tx.Abort()
	s.m.em.TxnsAborted.Inc()
	return &Result{Stats: &reopt.Stats{}, Query: tag}, err
}

// clearTxn closes the session's explicit-transaction slot if it still
// holds tx (a concurrent Exec may have already replaced it).
func (s *Session) clearTxn(tx *catalog.Txn) {
	s.txnMu.Lock()
	if s.txn == tx {
		s.txn = nil
	}
	s.txnMu.Unlock()
}

// Registry exposes the manager's metrics registry (the /metrics
// endpoint scrapes it).
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Sessions returns how many sessions have been opened.
func (m *Manager) Sessions() int64 { return m.sessions.Load() }

// QueriesRun returns how many queries have been tagged for execution.
func (m *Manager) QueriesRun() int64 { return m.queries.Load() }

// Uptime reports time since the manager was created.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// plan resolves the statement to an executable optimizer result,
// consulting the plan cache, and returns the Ticket of the cache entry
// it came from or was stored as (zero when the cache is bypassed). The
// optimizer runs through the dispatcher's own entry
// (reopt.Dispatcher.Optimize) with no lease attached, so under the
// fixed budget — the manager's, or the query's private one — and the
// cache key is stable across admissions; the broker's actual grant
// reshapes memory at allocation time, not plan shape.
func (s *Session) plan(stmt *sql.SelectStmt, opts Options) (*optimizer.Result, bool, plancache.Ticket, error) {
	m := s.m
	var key string
	var vers plancache.Versions
	if m.cache != nil && !opts.NoCache {
		key = plancache.Key(stmt, s.fingerprint(opts))
		if res, tk := m.cache.Lookup(key); res != nil {
			return res, true, tk, nil
		}
		vers = m.cache.Versions(stmt)
	}
	res, err := reopt.New(m.cat, s.dispatcherConfig(opts, nil, "")).Optimize(stmt)
	if err != nil {
		return nil, false, plancache.Ticket{}, err
	}
	var tk plancache.Ticket
	if key != "" {
		tk = m.cache.PutAt(key, res, vers)
	}
	return res, false, tk, nil
}

// learn feeds the rows a successful run observed back into the
// plan-cache entry tk names, whose plan ran under overlay ran. It acts
// only when a checkpoint found the plan suspect under Eq. 2, the
// statement binds no host variables (one binding's rows say nothing of
// another's), and the entry is still cached and current: after a commit
// on a table it reads, the run observed rows the catalog has moved past
// and the entry is about to be dropped. When the observations add a
// relation set to the entry's overlay, the entry is re-planned once
// under the merged overlay and replaced, unless another run replaced it
// first.
func (s *Session) learn(stmt *sql.SelectStmt, opts Options, tk plancache.Ticket, ran optimizer.Overlay, st *reopt.Stats) {
	if tk == (plancache.Ticket{}) || !slices.ContainsFunc(st.Decisions, reopt.Decision.Suspect) ||
		len(plancache.HostVars(stmt)) > 0 || !s.m.cache.Current(tk) {
		return
	}
	ov, added := ran.Merge(st.Observed())
	if !added {
		return
	}
	res, err := reopt.New(s.m.cat, s.dispatcherConfig(opts, nil, "")).OptimizeWith(stmt, ov)
	if err != nil {
		return // the entry keeps its plan; the query has its answer
	}
	s.m.cache.Replace(tk, res)
}

// fingerprint names every option that changes what the optimizer would
// produce. Options that only steer execution (mode, thresholds, seed)
// are deliberately absent so differently-tuned sessions share plans.
// Degree of parallelism is included even though Parallelize runs at
// dispatch time: exchange wrappers are part of the executed plan shape,
// and a future optimizer that costs them per degree must not share
// entries across degrees.
func (s *Session) fingerprint(opts Options) string {
	return fmt.Sprintf("mem=%.0f|idxjoin=%t|pool=%d|par=%d",
		s.budget(opts), !opts.DisableIndexJoin, s.m.pool.Capacity(), normDegree(opts.Parallel))
}

// budget is the fixed operator-memory budget the query is optimized
// under: its private Options.MemBudget when set, else the manager's.
func (s *Session) budget(opts Options) float64 {
	if opts.MemBudget > 0 {
		return opts.MemBudget
	}
	return s.m.cfg.MemBudget
}

// normDegree collapses every serial setting to 1 so "unset", 0, and 1
// share one cache entry.
func normDegree(d int) int {
	if d < 2 {
		return 1
	}
	return d
}

// dispatcherConfig is the one mapping from per-query options to the
// dispatcher's configuration; a nil lease means the query plans (and,
// with a private MemBudget, runs) under the fixed budget.
func (s *Session) dispatcherConfig(opts Options, lease *memmgr.Lease, tag string) reopt.Config {
	cfg := reopt.DefaultConfig(opts.Mode)
	cfg.Weights = s.m.meter.Weights()
	cfg.MemBudget = s.budget(opts)
	cfg.Lease = lease
	cfg.QueryTag = tag
	if opts.Mu > 0 {
		cfg.Mu = opts.Mu
	}
	if opts.Theta1 > 0 {
		cfg.Theta1 = opts.Theta1
	}
	if opts.Theta2 > 0 {
		cfg.Theta2 = opts.Theta2
	}
	cfg.HistFamily = opts.HistFamily
	if opts.SpliceSwitch {
		cfg.Strategy = reopt.StrategySplice
	}
	cfg.DisableIndexJoin = opts.DisableIndexJoin
	cfg.Seed = opts.Seed
	cfg.PoolPages = float64(s.m.pool.Capacity())
	cfg.Degree = opts.Parallel
	cfg.CheckpointHook = opts.CheckpointHook
	return cfg
}
