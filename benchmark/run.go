package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// How a run is sized. These are constants, not flags: a result taken with
// other values cannot be compared with a recorded one.
const (
	// dataSeed seeds the TPC-D generator. It is apart from -seed because
	// plan choices follow the data: over generator seeds 1–10 allocs_per_op
	// of tpcd_serial ranged over 22 % of its median, against a bound of 5 %.
	dataSeed = 1
	// setRounds is how many interleaved rounds the full set splits a
	// workload's window into.
	setRounds    = 3
	warmupSet    = 5 * time.Second // warm-up per workload in the full set
	warmupOne    = 3 * time.Second // and under -workload, where 92 runs share a 57-minute cap
	minSamples   = 200             // fewest pooled samples a workload may report
	setupRepeats = 5               // engine set-ups per workload; setup_s is their median
)

// runConfig is what one run of a workload is parameterised by. The seed
// is the only workload input; the rest sizes the measurement and takes
// other values than the constants above only in the smoke test.
type runConfig struct {
	seed         int64 // op order and host-variable streams
	warmup       time.Duration
	minSamples   int // refuse to report a workload with fewer pooled samples
	setupRepeats int // engine set-ups per workload; setup_s is their median
	traceOps     int // traced ops per class; 0 takes the workload's own count
}

// tally is what one client goroutine observed in one round; tallies
// merge into the run's pooled totals.
type tally struct {
	latMs     map[string][]float64 // per class, correct ops only
	attempted int
	failed    int
	firstErr  string
	cacheMiss int // read ops answered with cache_hit=false
	commitUs  []float64
	vacuumMs  []float64
	reads     int // read ops completed; denominator of the sums below
	workers   float64
	switches  float64
	reallocs  float64
	collects  float64
}

func newTally() *tally { return &tally{latMs: map[string][]float64{}} }

func (t *tally) merge(o *tally) {
	for c, xs := range o.latMs {
		t.latMs[c] = append(t.latMs[c], xs...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.cacheMiss += o.cacheMiss
	t.commitUs = append(t.commitUs, o.commitUs...)
	t.vacuumMs = append(t.vacuumMs, o.vacuumMs...)
	t.reads += o.reads
	t.workers += o.workers
	t.switches += o.switches
	t.reallocs += o.reallocs
	t.collects += o.collects
}

func (t *tally) correct() int { return t.attempted - t.failed }

func (t *tally) pooled() []float64 {
	var all []float64
	for _, xs := range t.latMs {
		all = append(all, xs...)
	}
	return all
}

// wlRun is one workload on its own fresh engine.
type wlRun struct {
	wl      *workload
	cfg     runConfig
	eng     *engine
	setupS  []float64
	refs    map[string][][]string
	clients []*server.Client
	srcs    []source

	total *tally // pooled over the measured rounds
	win   delta  // counter movement over the measured rounds

	// Rows the writer put into and took out of the private key range in
	// committed transactions, over every phase of the run.
	inserted, deleted atomic.Int64
}

// newRun sets the workload's engine up (several times, keeping the last:
// setup_s is the median), computes the reference answers, and dials the
// clients.
func newRun(wl *workload, cfg runConfig) (*wlRun, error) {
	r := &wlRun{wl: wl, cfg: cfg, total: newTally()}
	for i := 0; i < cfg.setupRepeats; i++ {
		if r.eng != nil {
			r.eng.stop()
		}
		eng, took, err := startEngine()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
		}
		r.eng = eng
		r.setupS = append(r.setupS, took.Seconds())
	}
	var err error
	if r.refs, err = references(r.eng.env, wl); err != nil {
		r.close()
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	for i := 0; i < wl.Clients; i++ {
		c, err := server.Dial(r.eng.addr)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		r.clients = append(r.clients, c)
	}
	r.srcs = wl.sources(cfg.seed, privateKeyBase)
	return r, nil
}

func (r *wlRun) close() { r.eng.stop() }

// issue runs one op through a client and checks its answer.
func (r *wlRun) issue(c *server.Client, o op, t *tally) error {
	t.attempted++
	resps := make([]*server.QueryResponse, len(o.Reqs))
	var commit time.Duration
	start := time.Now()
	for i, req := range o.Reqs {
		t0 := time.Now()
		resp, err := c.Exec(req)
		if err != nil {
			return r.fail(t, o, fmt.Errorf("request %d: %w", i, err))
		}
		commit = time.Since(t0) // the last request of a write op is its commit
		resps[i] = resp
	}
	lat := time.Since(start)
	if err := r.verify(o, resps, t); err != nil {
		return r.fail(t, o, err)
	}
	if o.Ref == "" {
		t.commitUs = append(t.commitUs, us(commit))
	}
	t.latMs[o.Class] = append(t.latMs[o.Class], ms(lat))
	return nil
}

func (r *wlRun) fail(t *tally, o op, err error) error {
	t.failed++
	err = fmt.Errorf("%s: %w", o.Class, err)
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
	return err
}

// verify checks a read op's rows against its reference, or a write op's
// row counts against the transaction's shape.
func (r *wlRun) verify(o op, resps []*server.QueryResponse, t *tally) error {
	if o.Ref != "" {
		resp := resps[0]
		if !sameRows(r.refs[o.Ref], resp.Rows) {
			return fmt.Errorf("wrong answer for %s: got %d rows, want %d", o.Ref, len(resp.Rows), len(r.refs[o.Ref]))
		}
		t.reads++
		if !resp.CacheHit && !o.Reqs[0].NoCache {
			t.cacheMiss++
		}
		if st := resp.Stats; st != nil {
			t.workers += float64(st.WorkersSpawned)
			t.switches += float64(st.PlanSwitches)
			t.reallocs += float64(st.MemReallocs)
			t.collects += float64(st.CollectorsInserted)
		}
		return nil
	}
	for i, resp := range resps {
		if resp.RowsAffected != o.Affected[i] {
			return fmt.Errorf("request %d affected %d rows, want %d", i, resp.RowsAffected, o.Affected[i])
		}
	}
	r.inserted.Add(o.Affected[2])
	r.deleted.Add(o.Affected[3])
	return nil
}

// vacuum is the writer's periodic sweep, timed but outside op latency.
func (r *wlRun) vacuum(t *tally) {
	t0 := time.Now()
	if _, err := r.eng.env.Cat.Vacuum(); err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = "vacuum: " + err.Error()
		}
	}
	t.vacuumMs = append(t.vacuumMs, ms(time.Since(t0)))
}

// warm runs the unrecorded warm-up: for the configured time, and on until
// every client has been through its cycle once, so that every statement's
// plan is cached however slow the machine is.
func (r *wlRun) warm() {
	cycle := 0
	for _, src := range r.srcs {
		cycle += src.period()
	}
	r.drive(r.cfg.warmup, false, cycle)
}

// drive runs every client closed-loop for d. With record set the round
// is pooled into the run's totals; want > 0 additionally keeps the round
// going until the run has that many pooled samples — or, unrecorded, the
// round that many ops — bounded at 4×d, so a slow machine lengthens the
// window instead of thinning the tail.
func (r *wlRun) drive(d time.Duration, record bool, want int) {
	before := r.eng.read()
	soft := time.Now().Add(d)
	hard := time.Now().Add(4 * d)
	var done atomic.Int64
	if record {
		done.Store(int64(r.total.correct()))
	}
	tallies := make([]*tally, len(r.clients))
	var wg sync.WaitGroup
	for i := range r.clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int, t *tally) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && done.Load() >= int64(want)) {
					return
				}
				o := r.srcs[i].next()
				if r.issue(r.clients[i], o, t) == nil {
					done.Add(1)
				}
				if o.Vacuum {
					r.vacuum(t)
				}
			}
		}(i, tallies[i])
	}
	wg.Wait()
	after := r.eng.read()
	if !record {
		return
	}
	r.win.add(before, after)
	for _, t := range tallies {
		r.total.merge(t)
	}
}

// guard refuses a run whose numbers would not mean what they claim.
func (r *wlRun) guard() error {
	var errs []error
	for _, c := range r.wl.Classes {
		if len(r.total.latMs[c]) == 0 {
			errs = append(errs, fmt.Errorf("class %s has no successful sample", c))
		}
	}
	if n := r.total.correct(); n < r.cfg.minSamples {
		errs = append(errs, fmt.Errorf("%d samples, need %d", n, r.cfg.minSamples))
	}
	if r.wl.AllHits && r.total.cacheMiss > 0 {
		errs = append(errs, fmt.Errorf("%d measured ops missed the plan cache: warm-up did not reach steady state", r.total.cacheMiss))
	}
	if r.total.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d ops failed, first: %s", r.total.failed, r.total.attempted, r.total.firstErr))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %w", r.wl.Name, errors.Join(errs...))
}

// finish asserts the residue set after the last phase of the run.
func (r *wlRun) finish() error {
	var errs []error
	if err := r.eng.residue(); err != nil {
		errs = append(errs, err)
	}
	if r.wl.Writes {
		req := server.QueryRequest{SQL: fmt.Sprintf("select count(*) as n from orders where o_orderkey >= %d", privateKeyBase)}
		rows, err := referenceRows(r.eng.env, req)
		want := fmt.Sprint(r.inserted.Load() - r.deleted.Load())
		if err != nil || len(rows) != 1 || rows[0][0] != want {
			errs = append(errs, fmt.Errorf("private key range holds %v rows, want %s (%v)", rows, want, err))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: residue: %w", r.wl.Name, errors.Join(errs...))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the nine user-visible metrics from the pooled
// untraced rounds, as the stopwatch and the counters read them.
func (r *wlRun) endToEnd() map[string]metric {
	t, w := r.total, &r.win
	ops := float64(t.correct())
	_, p95 := tailPercentile(t.pooled(), 0.95)
	return map[string]metric{
		"setup_s":            {median(r.setupS), "s"},
		"throughput_qps":     {ratio(ops, w.wall.Seconds()), "ops/s"},
		"latency_p50_geo_ms": {geoMeanOfMedians(t.latMs), "ms"},
		"latency_p95_ms":     {p95, "ms"},
		"failed_frac":        {ratio(float64(t.failed), float64(t.attempted)), "fraction"},
		"cpu_ms_per_op":      {ratio(ms(w.cpu), ops), "ms"},
		"allocs_per_op":      {ratio(w.mallocs, ops), "count"},
		"alloc_kb_per_op":    {ratio(w.allocBytes/1024, ops), "KiB"},
		"sim_cost_per_op":    {ratio(w.cost, ops), "cost"},
	}
}

// classSummary is the per-class view printed beside the aggregates.
type classSummary struct {
	Class   string  `json:"class"`
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"` // the percentile TailMs is, given the sample count
	TailMs  float64 `json:"tail_ms"`
}

func (r *wlRun) classSummaries() []classSummary {
	var out []classSummary
	for _, c := range r.wl.Classes {
		xs := r.total.latMs[c]
		pct, v := tailPercentile(xs, 0.95)
		out = append(out, classSummary{Class: c, Samples: len(xs), P50Ms: median(xs), TailPct: pct, TailMs: v})
	}
	return out
}

// windowLayers are the per-layer metrics read from public stats
// snapshots around the untraced window (and from its responses).
func (r *wlRun) windowLayers(m map[string]metric) {
	t, w := r.total, &r.win
	ops := float64(t.correct())
	reads := float64(t.reads)
	for _, c := range r.wl.Classes {
		m["server.class_p50_ms."+c] = metric{median(t.latMs[c]), "ms"}
	}
	m["plancache.hit_frac"] = metric{ratio(w.cacheHits, w.cacheHits+w.cacheMisses), "fraction"}
	m["plancache.invalidations_per_op"] = metric{ratio(w.cacheInval, ops), "count"}
	m["memmgr.wait_ms_per_op"] = metric{ratio(w.brokerWaitNs/1e6, ops), "ms"}
	m["storage.page_reads_per_op"] = metric{ratio(w.pageReads, ops), "count"}
	m["storage.page_writes_per_op"] = metric{ratio(w.pageWrites, ops), "count"}
	vacTotal, vacMax := 0.0, 0.0
	for _, v := range t.vacuumMs {
		vacTotal += v
		if v > vacMax {
			vacMax = v
		}
	}
	m["storage.vacuum_ms_total"] = metric{vacTotal, "ms"}
	m["storage.vacuum_ms_max"] = metric{vacMax, "ms"}
	m["catalog.commit_us"] = metric{median(t.commitUs), "us"}
	m["catalog.stats_version_bumps_per_txn"] = metric{ratio(w.statsVersion, float64(len(t.commitUs))), "count"}
	m["exchange.workers_per_op"] = metric{ratio(t.workers, reads), "count"}
	m["reopt.switches_per_op"] = metric{ratio(t.switches, reads), "count"}
	m["reopt.reallocs_per_op"] = metric{ratio(t.reallocs, reads), "count"}
	m["scia.collectors_per_op"] = metric{ratio(t.collects, reads), "count"}
	m["runtime.gc_cycles_per_op"] = metric{ratio(w.gcCycles, ops), "count"}
	m["runtime.gc_pause_ms_per_op"] = metric{ratio(w.gcPauseNs/1e6, ops), "ms"}
	m["runtime.gc_cpu_frac"] = metric{ratio(w.gcCPU, w.cpu.Seconds()), "fraction"}
}

// formatMetrics renders metrics one per line, sorted by name.
func formatMetrics(m map[string]metric, indent string) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s%-42s %14.4f %s\n", indent, n, m[n].Value, m[n].Unit)
	}
	return b.String()
}

// formatClasses renders the per-class medians and tails with the sample
// count each rests on.
func formatClasses(cs []classSummary, indent string) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%s%-24s n=%-6d p50 %9.3f ms   p%.0f %9.3f ms\n",
			indent, c.Class, c.Samples, c.P50Ms, c.TailPct*100, c.TailMs)
	}
	return b.String()
}
