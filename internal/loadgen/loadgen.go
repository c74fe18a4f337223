// Package loadgen is a closed-loop, multi-tenant load generator for the
// session manager: it drives concurrent sessions across tenant
// profiles, each worker submitting its next query the moment the
// previous one finishes, and reports per-tenant throughput, latency
// percentiles, preemption counts, and Jain's fairness index. The qos
// benchmark figure and its CI gates are built on it; the package itself
// is deliberately engine-agnostic — it only talks to session.Manager.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/memmgr"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/tenant"
	"repro/internal/types"
)

// Query is one statement in a profile's workload mix.
type Query struct {
	Name   string
	SQL    string
	Params map[string]types.Value
}

// Profile describes one tenant's offered load: its service class, how
// many closed-loop workers submit on its behalf, and the query mix each
// worker cycles through (staggered by worker index so the tenants'
// in-flight mixes stay heterogeneous).
type Profile struct {
	Tenant string
	Config tenant.Config
	// Workers is the number of concurrent closed-loop sessions
	// (default 1).
	Workers int
	Queries []Query
	// Mode is the re-optimization mode queries run under.
	Mode reopt.Mode
	// Think pauses each worker between queries (0 = saturating).
	Think time.Duration
}

// Options shapes one load-generation run.
type Options struct {
	// Warmup runs load without recording, letting queues and caches
	// reach steady state before measurement (default 0).
	Warmup time.Duration
	// Duration is the measured window (default 1s).
	Duration time.Duration
}

// TenantReport is one tenant's side of the run.
type TenantReport struct {
	Tenant  string  `json:"tenant"`
	Weight  float64 `json:"weight"`
	Workers int     `json:"workers"`
	// Completed counts queries that finished inside the measured
	// window; QPS is Completed over the window.
	Completed int64   `json:"completed"`
	QPS       float64 `json:"qps"`
	// Rejected counts admissions bounced by the tenant's queue bound
	// (HTTP 429 territory); Errors is everything else that failed.
	Rejected int64 `json:"rejected,omitempty"`
	Errors   int64 `json:"errors,omitempty"`
	// Preempts sums checkpoint suspensions over completed queries.
	Preempts int64   `json:"preempts,omitempty"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Err is the first non-rejection error observed, if any.
	Err string `json:"err,omitempty"`
}

// Report is one run's outcome.
type Report struct {
	WallSeconds float64        `json:"wall_seconds"`
	Completed   int64          `json:"completed"`
	Tenants     []TenantReport `json:"tenants"`
	// Jain is Jain's fairness index over weight-normalized throughput
	// (x_i = QPS_i / weight_i): 1.0 is perfectly weighted-fair, 1/n is
	// total capture by one tenant.
	Jain float64 `json:"jain"`
}

// tenantAcc accumulates one tenant's samples across its workers.
type tenantAcc struct {
	mu        sync.Mutex
	completed int64
	rejected  int64
	errs      int64
	preempts  int64
	firstErr  error
	latencies []float64 // milliseconds, completed queries only
}

// Run drives every profile's workers concurrently against m until
// warmup+duration has elapsed, then reports the measured window.
// Queries still in flight at the deadline are cancelled and not
// counted. Tenant service classes are installed on the manager before
// load starts.
func Run(m *session.Manager, profiles []Profile, opts Options) (*Report, error) {
	if len(profiles) == 0 {
		return nil, errors.New("loadgen: no profiles")
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	for _, p := range profiles {
		m.SetTenantConfig(p.Tenant, p.Config)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.Warmup+opts.Duration)
	defer cancel()
	measureFrom := time.Now().Add(opts.Warmup)

	accs := make([]*tenantAcc, len(profiles))
	var wg sync.WaitGroup
	for pi := range profiles {
		p := &profiles[pi]
		acc := &tenantAcc{}
		accs[pi] = acc
		workers := p.Workers
		if workers < 1 {
			workers = 1
		}
		if len(p.Queries) == 0 {
			return nil, fmt.Errorf("loadgen: profile %q has no queries", p.Tenant)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runWorker(ctx, m, p, acc, w, measureFrom)
			}(w)
		}
	}
	wg.Wait()

	window := opts.Duration.Seconds()
	rep := &Report{WallSeconds: window}
	xs := make([]float64, 0, len(profiles))
	for pi, p := range profiles {
		acc := accs[pi]
		workers := p.Workers
		if workers < 1 {
			workers = 1
		}
		tr := TenantReport{
			Tenant:    tenant.Canonical(p.Tenant),
			Weight:    m.TenantConfig(p.Tenant).Weight,
			Workers:   workers,
			Completed: acc.completed,
			Rejected:  acc.rejected,
			Errors:    acc.errs,
			Preempts:  acc.preempts,
			QPS:       float64(acc.completed) / window,
		}
		if acc.firstErr != nil {
			tr.Err = acc.firstErr.Error()
		}
		tr.MeanMs, tr.P50Ms, tr.P99Ms = latencySummary(acc.latencies)
		rep.Completed += tr.Completed
		rep.Tenants = append(rep.Tenants, tr)
		xs = append(xs, tr.QPS/tr.Weight)
	}
	rep.Jain = Jain(xs)
	return rep, nil
}

// runWorker is one closed-loop session: submit, wait, repeat. Queue
// rejections back off briefly and retry (the polite reaction to a 429);
// cancellation at the run deadline ends the loop.
func runWorker(ctx context.Context, m *session.Manager, p *Profile, acc *tenantAcc, w int, measureFrom time.Time) {
	s := m.Session()
	s.SetTenant(p.Tenant)
	for i := w; ; i++ {
		if ctx.Err() != nil {
			return
		}
		q := p.Queries[i%len(p.Queries)]
		start := time.Now()
		res, err := s.Exec(ctx, q.SQL, session.Options{
			Mode:   p.Mode,
			Params: q.Params,
			// Progress tracking is per-query registry churn that the
			// generator's hundreds of sessions don't need.
			NoProgress: true,
		})
		// A completion (or rejection) is measured if it lands inside
		// the window. Under saturation a query can spend several
		// windows' worth of time queued, so gating on start time would
		// undercount exactly the backlogged regime the generator
		// exists to create; completion-time accounting is the standard
		// closed-loop convention. (The run context expires at window
		// end, so nothing lands after it.)
		measured := !time.Now().Before(measureFrom)
		switch {
		case err == nil:
			if measured {
				lat := time.Since(start).Seconds() * 1e3
				acc.mu.Lock()
				acc.completed++
				acc.preempts += int64(res.Preempted)
				acc.latencies = append(acc.latencies, lat)
				acc.mu.Unlock()
			}
		case errors.Is(err, memmgr.ErrQueueFull):
			if measured {
				acc.mu.Lock()
				acc.rejected++
				acc.mu.Unlock()
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		case ctx.Err() != nil:
			// Run deadline: the in-flight query was cancelled, not
			// failed.
			return
		default:
			acc.mu.Lock()
			acc.errs++
			if acc.firstErr == nil {
				acc.firstErr = err
			}
			acc.mu.Unlock()
		}
		if p.Think > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(p.Think):
			}
		}
	}
}

// latencySummary returns (mean, p50, p99) in the samples' unit.
func latencySummary(lat []float64) (mean, p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return sum / float64(len(sorted)), pick(0.50), pick(0.99)
}

// Jain computes Jain's fairness index (sum x)^2 / (n * sum x^2) over
// the given allocations: 1.0 when all are equal, 1/n when one tenant
// captures everything. Zero or empty allocations yield 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
