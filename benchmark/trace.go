package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/memmgr"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/reopt"
	"repro/internal/scia"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/tenant"
)

// tracedOp is what the traced pass measured for one op. Durations are 0
// where a stage does not apply (write ops have no staged children).
type tracedOp struct {
	class   string
	complex bool
	read    bool
	hit     bool // the server answered from the plan cache

	server, session, noProgress time.Duration
	respBytes                   int

	parse, get, optimize, scia time.Duration
	admitRelease, allocate     time.Duration
	runFull, runOff, runPar    time.Duration
	tree                       time.Duration // root busy time of the benchmark's own operator tree
	plans                      int
	offCost                    float64
	acted                      bool // the full run switched plans or re-allocated memory
}

// tracer carries the traced pass's state across ops.
type tracer struct {
	r      *wlRun
	rec    *recorder
	client *server.Client
	sess   *session.Session
	cache  *plancache.Cache
	ops    []tracedOp
	offSt  *treeStats // operator trees of ModeOff plans
	colSt  *treeStats // the same plans with SCIA collectors inserted
	nextOp int
}

// tracedPass issues a fixed, seeded op sequence from one client on the
// workload's live engine and measures every layer from outside, by
// timing calls into its exported functions. End-to-end metrics never
// come from here.
func (r *wlRun) tracedPass() (map[string]metric, []span, error) {
	layers := map[string]metric{}
	for _, d := range layerMetrics() {
		layers[d.Name] = metric{0, d.Unit}
	}
	r.windowLayers(layers)

	cat := r.eng.env.Cat
	t := &tracer{
		r: r, rec: newRecorder(), client: r.clients[0], sess: r.eng.mgr.Session(),
		cache: plancache.New(planCacheSize, cat.SchemaVersion, cat.TableVersion),
		offSt: newTreeStats(), colSt: newTreeStats(),
	}
	stopSampler := sampleHeapPeak()
	defer stopSampler()

	// Fresh sources (same seed, so the same sequence every run) on a key
	// range of their own, interleaved one op per source per turn, until
	// every source has visited each of its classes TraceOps times.
	srcs := r.wl.sources(r.cfg.seed, privateKeyBase+(1<<36))
	tl := newTally() // the pass's answers are checked; its latencies are not pooled
	perClass := r.wl.TraceOps
	if r.cfg.traceOps > 0 {
		perClass = r.cfg.traceOps
	}
	for turn, busy := 0, true; busy; turn++ {
		busy = false
		for _, src := range srcs {
			if turn >= perClass*src.period() {
				continue
			}
			busy = true
			o := src.next()
			var err error
			if o.Ref != "" {
				err = t.traceRead(o, tl)
			} else {
				second := src.next()
				o.Vacuum = o.Vacuum || second.Vacuum
				err = t.traceWrite(o, second, tl)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: traced pass: %w", r.wl.Name, err)
			}
			if o.Vacuum {
				r.vacuum(tl)
			}
		}
	}
	if tl.failed > 0 {
		return nil, nil, fmt.Errorf("%s: traced pass: %s", r.wl.Name, tl.firstErr)
	}
	if err := t.micro(layers); err != nil {
		return nil, nil, fmt.Errorf("%s: micro-timings: %w", r.wl.Name, err)
	}
	layers["runtime.heap_inuse_peak_mb"] = metric{stopSampler() / (1 << 20), "MiB"}
	t.layerMetrics(layers)
	return layers, t.rec.snapshot(), nil
}

// sampleHeapPeak samples the heap in use every 100 ms until the
// returned function is called, which reports the peak in bytes (and may
// be called again).
func sampleHeapPeak() func() float64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64() + s[1].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() float64 {
		once.Do(func() { close(stop) })
		wg.Wait()
		return peak
	}
}

// sessionOptions mirrors what the server derives from a request.
func sessionOptions(req server.QueryRequest) (session.Options, error) {
	mode, err := server.ParseMode(req.Mode)
	if err != nil {
		return session.Options{}, err
	}
	params, err := server.ParseParams(req.Params)
	if err != nil {
		return session.Options{}, err
	}
	return session.Options{Mode: mode, Params: params, NoCache: req.NoCache, Parallel: req.Parallel}, nil
}

// traceRead records one read op: the request over loopback, the same
// statement through Session.Exec, and the staged children called
// directly in the order session.execSelect uses them.
func (t *tracer) traceRead(o op, tl *tally) error {
	t.nextOp++
	id, rec, eng := t.nextOp, t.rec, t.r.eng
	req := o.Reqs[0]
	opts, err := sessionOptions(req)
	if err != nil {
		return err
	}
	to := tracedOp{class: o.Class, complex: o.Complex, read: true}
	root := rec.begin("op:"+o.Class, "benchmark", 0, id)
	defer rec.end(root)
	ctx := context.Background()

	// server: the whole front door.
	var resp *server.QueryResponse
	to.server = rec.timed("server", "server", root, id, func() { resp, err = t.client.Exec(req) })
	if err != nil {
		return err
	}
	tl.attempted++
	if err := t.r.verify(o, []*server.QueryResponse{resp}, tl); err != nil {
		return t.r.fail(tl, o, err)
	}
	to.hit = resp.CacheHit
	if body, err := json.Marshal(resp); err == nil {
		to.respBytes = len(body) + 1 // the encoder's trailing newline
	}

	// session: the same statement below HTTP and JSON, then once more
	// without progress tracking (obs.progress_overhead_frac).
	var res *session.Result
	to.session = rec.timed("session", "session", root, id, func() { res, err = t.sess.Exec(ctx, req.SQL, opts) })
	if err != nil {
		return err
	}
	if !sameRows(t.r.refs[o.Ref], renderRows(res.Rows)) {
		return fmt.Errorf("%s: wrong answer through Session.Exec", o.Ref)
	}
	np := opts
	np.NoProgress = true
	to.noProgress = rec.timed("session.noprogress", "obs", root, id, func() { _, err = t.sess.Exec(ctx, req.SQL, np) })
	if err != nil {
		return err
	}

	// sql
	var stmt sql.Stmt
	to.parse = rec.timed("sql", "sql", root, id, func() { stmt, err = sql.ParseStatement(req.SQL) })
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return fmt.Errorf("%s is not a SELECT", o.Class)
	}

	// optimizer, then plancache: the optimized plan is put into the
	// benchmark's own cache so that the timed Key+Get is always a hit
	// (on mixed_rw every commit invalidates the previous entry).
	var plain *optimizer.Result
	weights := eng.env.Meter.Weights()
	budget := eng.env.Cfg.MemBudget
	pages := float64(eng.env.Pool.Capacity())
	to.optimize = rec.timed("optimizer", "optimizer", root, id, func() {
		var q *optimizer.Query
		if q, err = optimizer.Analyze(eng.env.Cat, sel); err != nil {
			return
		}
		opt := &optimizer.Optimizer{Weights: weights, MemBudget: budget, PoolPages: pages}
		plain, err = opt.Optimize(q)
		to.plans = opt.PlansConsidered
	})
	if err != nil {
		return err
	}
	fingerprint := fmt.Sprintf("mem=%.0f|idxjoin=true|pool=%d|par=%d", budget, eng.env.Pool.Capacity(), t.r.wl.Degree)
	t.cache.Put(plancache.Key(sel, fingerprint), plain)
	fresh := func() *optimizer.Result { return t.cache.Get(plancache.Key(sel, fingerprint)) }
	to.get = rec.timed("plancache", "plancache", root, id, func() { plain = fresh() })
	if plain == nil {
		return fmt.Errorf("%s: plan-cache get missed right after put", o.Class)
	}

	// scia
	sciaCfg := scia.Config{Mu: 0.05, HistFamily: reopt.DefaultConfig(opts.Mode).HistFamily, Weights: weights}
	withCollectors := fresh()
	to.scia = rec.timed("scia", "scia", root, id, func() { _, err = scia.Insert(withCollectors, sciaCfg) })
	if err != nil {
		return err
	}

	// memmgr: demands, admission, allocation, release.
	broker := eng.mgr.Broker()
	mm := rec.begin("memmgr", "memmgr", root, id)
	t0 := time.Now()
	min, max := memmgr.Demands(plain.Root)
	lease, err := broker.AdmitTenant(ctx, tenant.Default, "bench", min, max)
	if err != nil {
		rec.end(mm)
		return err
	}
	admitted := time.Since(t0)
	t1 := time.Now()
	memmgr.New(lease.Held()).Allocate(plain.Root)
	to.allocate = time.Since(t1)
	t2 := time.Now()
	lease.Release()
	to.admitRelease = admitted + time.Since(t2)
	rec.end(mm)

	// reopt: the same optimized plan under the request's mode and under
	// ModeOff, each at the request's degree and ModeOff also serial.
	params := plan.Params{}
	for k, v := range opts.Params {
		params[k] = v
	}
	runPlan := func(name, cat string, mode reopt.Mode, degree int, d *time.Duration) (*reopt.Stats, float64, error) {
		res := fresh()
		min, max := memmgr.Demands(res.Root)
		lease, err := broker.AdmitTenant(ctx, tenant.Default, "bench", min, max)
		if err != nil {
			return nil, 0, err
		}
		defer lease.Release()
		cfg := reopt.DefaultConfig(mode)
		cfg.Weights, cfg.MemBudget, cfg.PoolPages = weights, budget, pages
		cfg.Lease, cfg.QueryTag, cfg.Degree = lease, fmt.Sprintf("bench_%d", id), degree
		disp := reopt.New(eng.env.Cat, cfg)
		defer disp.Cleanup()
		ectx, done := t.execCtx(params)
		defer done()
		before := eng.env.Meter.Snapshot()
		var st *reopt.Stats
		var rows [][]string
		*d = rec.timed(name, cat, root, id, func() {
			tuples, s, e := disp.RunPlan(res, params, ectx)
			st, err, rows = s, e, renderRows(tuples)
		})
		if err != nil {
			return nil, 0, err
		}
		if !sameRows(t.r.refs[o.Ref], rows) {
			return nil, 0, fmt.Errorf("%s: wrong answer through %s", o.Ref, name)
		}
		return st, eng.env.Meter.Snapshot().Sub(before).Cost(), nil
	}
	st, _, err := runPlan("reopt", "reopt", opts.Mode, req.Parallel, &to.runFull)
	if err != nil {
		return err
	}
	to.acted = st.PlanSwitches > 0 || st.MemReallocs > 0
	if _, to.offCost, err = runPlan("reopt.off", "reopt", reopt.ModeOff, 0, &to.runOff); err != nil {
		return err
	}
	if req.Parallel > 1 {
		// exchange: the ModeOff plan again behind gathers, the only
		// stage that exists on parallel workloads alone.
		if _, _, err = runPlan("exchange", "exchange", reopt.ModeOff, req.Parallel, &to.runPar); err != nil {
			return err
		}
	}

	// exec: the benchmark's own span-wrapped operator trees over the
	// allocated ModeOff plan, and over the plan with collectors.
	for _, v := range []struct {
		res *optimizer.Result
		st  *treeStats
		dst *time.Duration
	}{{fresh(), t.offSt, &to.tree}, {withCollectors, t.colSt, nil}} {
		memmgr.New(budget).Allocate(v.res.Root)
		ectx, done := t.execCtx(params)
		tree := rec.begin("exec", "exec", root, id)
		rows, busy, err := runTree(v.res.Root, ectx, rec, id, tree, v.st)
		rec.end(tree)
		done()
		if err != nil {
			return err
		}
		if !sameRows(t.r.refs[o.Ref], renderRows(rows)) {
			return fmt.Errorf("%s: wrong answer through the operator tree", o.Ref)
		}
		if v.dst != nil {
			*v.dst = busy
		}
	}
	t.ops = append(t.ops, to)
	return nil
}

// execCtx is an operator context under a fresh read snapshot, as
// session.execSelect builds one; the returned function ends the snapshot.
func (t *tracer) execCtx(params plan.Params) (*exec.Ctx, func()) {
	env := t.r.eng.env
	rd := env.Cat.BeginRead()
	return &exec.Ctx{Context: context.Background(), Pool: env.Pool, Meter: env.Meter, Params: params, Snap: rd.Snapshot()}, rd.End
}

// traceWrite records one write op over loopback and the next one of the
// same shape through Session.Exec.
func (t *tracer) traceWrite(viaServer, viaSession op, tl *tally) error {
	t.nextOp++
	id, rec := t.nextOp, t.rec
	to := tracedOp{class: viaServer.Class}
	root := rec.begin("op:"+viaServer.Class, "benchmark", 0, id)
	defer rec.end(root)

	tl.attempted++
	resps := make([]*server.QueryResponse, len(viaServer.Reqs))
	for i, req := range viaServer.Reqs {
		var err error
		to.server += rec.timed("server", "server", root, id, func() { resps[i], err = t.client.Exec(req) })
		if err != nil {
			return err
		}
		if body, err := json.Marshal(resps[i]); err == nil {
			to.respBytes += len(body) + 1
		}
	}
	if err := t.r.verify(viaServer, resps, tl); err != nil {
		return t.r.fail(tl, viaServer, err)
	}

	tl.attempted++
	ctx := context.Background()
	for i, req := range viaSession.Reqs {
		var res *session.Result
		var err error
		to.session += rec.timed("session", "session", root, id, func() { res, err = t.sess.Exec(ctx, req.SQL, session.Options{}) })
		if err != nil {
			return err
		}
		resps[i] = &server.QueryResponse{RowsAffected: res.RowsAffected}
	}
	if err := t.r.verify(viaSession, resps, tl); err != nil {
		return t.r.fail(tl, viaSession, err)
	}
	t.ops = append(t.ops, to)
	return nil
}
