// Package server exposes the multi-query engine over HTTP: concurrent
// clients open sessions and submit SQL, all against one shared catalog,
// buffer pool, memory broker, and plan cache. The protocol is JSON —
// deliberately plain, since the point of the reproduction is the
// engine, not the wire format.
//
// Endpoints:
//
//	POST /session          SessionRequest -> {"session": id}
//	POST /tenants          TenantRequest -> tenant.Config
//	GET  /tenants          -> []memmgr.TenantStats
//	POST /query            QueryRequest -> QueryResponse
//	POST /cancel           CancelRequest -> CancelResponse
//	POST /analyze          AnalyzeRequest -> {}
//	GET  /status           -> StatusResponse
//	GET  /progress         -> []obs.ProgressSnapshot (live queries)
//	GET  /progress?id=TAG  -> [snapshot] for one query (404 if unknown)
//	GET  /metrics          -> Prometheus text exposition
//
// Every query is abortable: /cancel aborts by tag, QueryRequest can
// carry a per-query deadline, the server can impose a default one, and
// a client disconnect cancels via the request context.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/histogram"
	"repro/internal/memmgr"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/tenant"
	"repro/internal/types"
)

// QueryRequest is one SQL submission.
type QueryRequest struct {
	// Session routes the query to a session opened via POST /session;
	// 0 uses the server's shared default session.
	Session int64  `json:"session,omitempty"`
	SQL     string `json:"sql"`
	// Tenant bills this query to a service class for fair-share
	// admission (weight, quota, priority). Empty inherits the session's
	// tenant (set at POST /session), which itself defaults to "default".
	Tenant string `json:"tenant,omitempty"`
	// Mode is "off", "memory", "plan", "full", or "restart"
	// (default "off").
	Mode string `json:"mode,omitempty"`
	// Params binds host variables. Values are tagged strings —
	// "int:42", "float:1.5", "string:ASIA", "date:1995-03-15" — or
	// bare literals, which are parsed as int, then float, then string.
	Params           map[string]string `json:"params,omitempty"`
	NoCache          bool              `json:"no_cache,omitempty"`
	Splice           bool              `json:"splice,omitempty"`
	DisableIndexJoin bool              `json:"disable_index_join,omitempty"`
	Seed             int64             `json:"seed,omitempty"`
	// Explain runs the query under EXPLAIN ANALYZE and returns the
	// annotated plan in the response's "plan" field.
	Explain bool `json:"explain,omitempty"`
	// Trace returns the query's lifecycle event log.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMs bounds the query's wall-clock time in milliseconds,
	// overriding the server's default query timeout; 0 inherits it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Parallel is the intra-query degree of parallelism (values below
	// 2 run serially).
	Parallel int `json:"parallel,omitempty"`
}

// SessionRequest opens a session, optionally bound to a tenant: every
// query on the session is billed to that tenant's service class unless
// the query request overrides it. An empty body keeps the default
// tenant.
type SessionRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

// TenantRequest configures one tenant's service class (POST /tenants).
// Zero-valued fields take the defaults: weight 1, priority 0, no
// quota, unbounded queue.
type TenantRequest struct {
	Tenant string        `json:"tenant"`
	Config tenant.Config `json:"config"`
}

// CancelRequest aborts a running query by its engine tag (the "query"
// field of QueryResponse / the tags in StatusResponse.Running).
type CancelRequest struct {
	Query string `json:"query"`
}

// CancelResponse reports whether the tag named a running query.
type CancelResponse struct {
	Cancelled bool `json:"cancelled"`
}

// QueryResponse is one query's outcome. Rows are rendered to strings
// with the engine's display formatting.
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// RowsAffected is the row count a DML statement wrote (COMMIT
	// reports the whole transaction's total).
	RowsAffected int64   `json:"rows_affected,omitempty"`
	Cost         float64 `json:"cost"`
	Query        string  `json:"query"`
	Tenant       string  `json:"tenant,omitempty"`
	// Preempted counts how many times this query was suspended at a
	// re-optimization checkpoint and re-queued before finishing.
	Preempted int               `json:"preempted,omitempty"`
	CacheHit  bool              `json:"cache_hit"`
	Stats     *reopt.Stats      `json:"stats,omitempty"`
	Broker    memmgr.LeaseStats `json:"broker"`
	Plan      string            `json:"plan,omitempty"`
	Trace     []obs.Event       `json:"trace,omitempty"`
	// TraceDropped counts trace events the query's ring evicted.
	TraceDropped int    `json:"trace_dropped,omitempty"`
	Error        string `json:"error,omitempty"`
}

// AnalyzeRequest refreshes one table's statistics.
type AnalyzeRequest struct {
	Table string `json:"table"`
	// Family is "equiwidth", "equidepth", "maxdiff" (default), or
	// "endbiased".
	Family string `json:"family,omitempty"`
}

// StatusResponse snapshots the shared engine.
type StatusResponse struct {
	Broker        memmgr.BrokerStats `json:"broker"`
	Cache         plancache.Stats    `json:"cache"`
	Sessions      int64              `json:"sessions"`
	Queries       int64              `json:"queries"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	// Running lists the tags of queries currently executing — the
	// handles POST /cancel accepts.
	Running []string `json:"running,omitempty"`
	// Progress summarizes each running query's live state (fraction,
	// suboptimality score, spill) without per-operator detail; GET
	// /progress returns the full operator breakdown.
	Progress []obs.ProgressSnapshot `json:"progress,omitempty"`
	// Tenants snapshots each tenant's service class and scheduling
	// state: queue depth, held memory, virtual time, preemptions.
	Tenants []memmgr.TenantStats `json:"tenants,omitempty"`
}

// Server serves one session.Manager over HTTP.
type Server struct {
	m   *session.Manager
	log *slog.Logger

	// queryTimeout is the default deadline applied to every query that
	// does not set its own TimeoutMs; 0 means none.
	queryTimeout time.Duration
	// parallel is the default intra-query degree of parallelism for
	// requests that do not set their own; 0 means serial.
	parallel int

	mu       sync.Mutex
	sessions map[int64]*session.Session
	shared   *session.Session
}

// New wraps a manager.
func New(m *session.Manager) *Server {
	return &Server{
		m:        m,
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		sessions: map[int64]*session.Session{},
		shared:   m.Session(),
	}
}

// SetLogger installs a structured logger for request logging. The
// default discards everything.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// SetQueryTimeout installs a default per-query deadline. Individual
// requests override it with TimeoutMs; 0 disables the default.
func (s *Server) SetQueryTimeout(d time.Duration) { s.queryTimeout = d }

// SetParallel installs a default intra-query degree of parallelism.
// Individual requests override it with Parallel; 0 disables the default.
func (s *Server) SetParallel(deg int) { s.parallel = deg }

// SetSlowQueryThreshold makes the engine warn (on the server's logger)
// about statements slower than d; 0 disables.
func (s *Server) SetSlowQueryThreshold(d time.Duration) {
	s.m.SetLogger(s.log)
	s.m.SetSlowQueryThreshold(d)
}

// Handler returns the server's HTTP handler (httptest and embedding).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/cancel", s.handleCancel)
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Serve accepts connections on l until it is closed.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return srv.Serve(l)
}

// ListenAndServe binds addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The body is optional (legacy clients POST an empty object or
	// nothing at all); a tenant binding is the only field today.
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	sess := s.m.Session()
	if req.Tenant != "" {
		sess.SetTenant(req.Tenant)
	}
	s.mu.Lock()
	s.sessions[sess.ID()] = sess
	s.mu.Unlock()
	writeJSON(w, map[string]int64{"session": sess.ID()})
}

// handleTenants configures a tenant's service class (POST) or lists
// every tenant's scheduling state (GET) — the same rows /status embeds.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, s.m.TenantStats())
	case http.MethodPost:
		var req TenantRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		if req.Tenant == "" {
			httpError(w, http.StatusBadRequest, "missing tenant name")
			return
		}
		s.m.SetTenantConfig(req.Tenant, req.Config)
		s.log.Info("tenant configured",
			"tenant", req.Tenant,
			"weight", req.Config.Weight,
			"priority", req.Config.Priority,
			"quota_bytes", req.Config.QuotaBytes,
			"max_queued", req.Config.MaxQueued)
		writeJSON(w, s.m.TenantConfig(req.Tenant))
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (s *Server) session(id int64) (*session.Session, error) {
	if id == 0 {
		return s.shared, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %d", id)
	}
	return sess, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := execOptions(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if opts.Timeout == 0 {
		opts.Timeout = s.queryTimeout
	}
	if opts.Parallel == 0 {
		opts.Parallel = s.parallel
	}
	start := time.Now()
	res, err := sess.Exec(r.Context(), req.SQL, opts)
	if err != nil {
		s.log.Warn("query failed",
			"session", req.Session,
			"duration", time.Since(start),
			"err", err)
		// A full tenant admission queue is back-pressure, not a query
		// error: 429 tells well-behaved clients to retry after a beat
		// instead of hammering the queue bound.
		if errors.Is(err, memmgr.ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			writeJSON(w, QueryResponse{Error: err.Error()})
			return
		}
		// A query error is a well-formed response, not a transport
		// failure: clients distinguish "your SQL is wrong" from "the
		// server is down".
		w.WriteHeader(http.StatusUnprocessableEntity)
		writeJSON(w, QueryResponse{Error: err.Error()})
		return
	}
	switches := 0
	if res.Stats != nil { // DML and transaction control carry no dispatcher stats
		switches = res.Stats.PlanSwitches
	}
	s.log.Info("query",
		"session", req.Session,
		"tag", res.Query,
		"duration", time.Since(start),
		"rows", len(res.Rows),
		"rows_affected", res.RowsAffected,
		"cost", res.Cost,
		"switches", switches,
		"cache_hit", res.CacheHit)
	rows := make([][]string, len(res.Rows))
	for i, tup := range res.Rows {
		row := make([]string, len(tup))
		for j, v := range tup {
			row[j] = v.String()
		}
		rows[i] = row
	}
	writeJSON(w, QueryResponse{
		Columns:      res.Columns,
		Rows:         rows,
		RowsAffected: res.RowsAffected,
		Cost:         res.Cost,
		Query:        res.Query,
		Tenant:       res.Tenant,
		Preempted:    res.Preempted,
		CacheHit:     res.CacheHit,
		Stats:        res.Stats,
		Broker:       res.Broker,
		Plan:         res.Plan,
		Trace:        res.Trace,
		TraceDropped: res.TraceDropped,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req CancelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "missing query tag")
		return
	}
	ok := s.m.Cancel(req.Query)
	s.log.Info("cancel", "tag", req.Query, "found", ok)
	if !ok {
		// Not an error status: the query may have just finished, and
		// cancellation is inherently racy with completion.
		writeJSON(w, CancelResponse{Cancelled: false})
		return
	}
	writeJSON(w, CancelResponse{Cancelled: true})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	family, err := parseFamily(req.Family)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.m.Analyze(req.Table, family); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, struct{}{})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, StatusResponse{
		Broker:        s.m.Broker().Stats(),
		Cache:         s.m.CacheStats(),
		Sessions:      s.m.Sessions(),
		Queries:       s.m.QueriesRun(),
		UptimeSeconds: s.m.Uptime().Seconds(),
		Running:       s.m.Running(),
		Progress:      s.m.ProgressSnapshots(false, false),
		Tenants:       s.m.TenantStats(),
	})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		p := s.m.Progress().Get(id)
		if p == nil {
			httpError(w, http.StatusNotFound, "unknown query "+id)
			return
		}
		writeJSON(w, []obs.ProgressSnapshot{p.Snapshot(true)})
		return
	}
	writeJSON(w, s.m.ProgressSnapshots(true, false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.Registry().WritePrometheus(w)
}

func execOptions(req QueryRequest) (session.Options, error) {
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return session.Options{}, err
	}
	params, err := ParseParams(req.Params)
	if err != nil {
		return session.Options{}, err
	}
	return session.Options{
		Mode:             mode,
		Tenant:           req.Tenant,
		Params:           params,
		SpliceSwitch:     req.Splice,
		DisableIndexJoin: req.DisableIndexJoin,
		Seed:             req.Seed,
		NoCache:          req.NoCache,
		Explain:          req.Explain,
		Trace:            req.Trace,
		Timeout:          time.Duration(req.TimeoutMs) * time.Millisecond,
		Parallel:         req.Parallel,
	}, nil
}

// ParseMode maps a wire mode name to the dispatcher mode.
func ParseMode(s string) (reopt.Mode, error) { return reopt.ParseMode(s) }

func parseFamily(s string) (histogram.Family, error) {
	switch strings.ToLower(s) {
	case "", "maxdiff":
		return histogram.MaxDiff, nil
	case "equiwidth":
		return histogram.EquiWidth, nil
	case "equidepth":
		return histogram.EquiDepth, nil
	case "endbiased":
		return histogram.EndBiased, nil
	default:
		return 0, fmt.Errorf("unknown histogram family %q", s)
	}
}

// ParseParams decodes the wire parameter map: tagged "kind:value"
// strings, or bare literals tried as int, float, then string.
func ParseParams(raw map[string]string) (map[string]types.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]types.Value, len(raw))
	for name, s := range raw {
		v, err := ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("param %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// ParseValue decodes one wire value.
func ParseValue(s string) (types.Value, error) {
	if kind, rest, ok := strings.Cut(s, ":"); ok {
		switch kind {
		case "int":
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewInt(n), nil
		case "float":
			f, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(f), nil
		case "string":
			return types.NewString(rest), nil
		case "date":
			t, err := time.Parse("2006-01-02", rest)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDateFromTime(t), nil
		}
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return types.NewInt(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return types.NewFloat(f), nil
	}
	return types.NewString(s), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
