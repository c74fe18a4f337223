package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/session"
)

// Engine sizing beyond bench.Default(): the frozen EXPERIMENTS.md regime
// (SF 0.01, 256-page pool, 2 MiB operator memory, StaleFrac 0.5) plus
// the server-side pools.
const (
	memPoolBytes  = 16 << 20
	planCacheSize = 256
)

// engine is one real stack: loaded data, manager, HTTP server on
// loopback.
type engine struct {
	env    *bench.Env
	mgr    *session.Manager
	ln     net.Listener
	addr   string
	served chan error
}

// startEngine loads the data and brings the server up. The returned
// duration is setup_s: start of NewEnv until the listener answers its
// first GET /status.
func startEngine() (*engine, time.Duration, error) {
	t0 := time.Now()
	cfg := bench.Default()
	cfg.Seed = dataSeed
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	mgr := session.NewManager(env.Cat, env.Pool, env.Meter, session.Config{
		MemPoolBytes:  memPoolBytes,
		MemBudget:     cfg.MemBudget,
		PlanCacheSize: planCacheSize,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	e := &engine{env: env, mgr: mgr, ln: ln, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { e.served <- server.New(mgr).Serve(ln) }()
	resp, err := http.Get("http://" + e.addr + "/status")
	if err != nil {
		e.stop()
		return nil, 0, fmt.Errorf("first /status: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.stop()
		return nil, 0, fmt.Errorf("first /status: HTTP %d", resp.StatusCode)
	}
	return e, time.Since(t0), nil
}

// stop closes the listener, waits for the accept loop to return, and
// drops the clients' idle keep-alive connections so their server-side
// goroutines end too.
func (e *engine) stop() {
	e.ln.Close()
	<-e.served
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// residue checks what a finished workload must leave behind: a fully
// repaid broker, no running query, no temp table, and after a vacuum no
// dead version.
func (e *engine) residue() error {
	var errs []error
	// Grants are float64 byte counts; returns and growths leave rounding
	// dust, so "fully repaid" means to within one byte.
	if bs := e.mgr.Broker().Stats(); math.Abs(bs.PoolBytes-bs.AvailBytes) >= 1 {
		errs = append(errs, fmt.Errorf("broker holds %.0f of %.0f bytes", bs.PoolBytes-bs.AvailBytes, bs.PoolBytes))
	}
	if r := e.mgr.Running(); len(r) > 0 {
		errs = append(errs, fmt.Errorf("queries still running: %v", r))
	}
	if t := e.env.Cat.TempTables(); len(t) > 0 {
		errs = append(errs, fmt.Errorf("temp tables left: %v", t))
	}
	if _, err := e.env.Cat.Vacuum(); err != nil {
		errs = append(errs, fmt.Errorf("vacuum: %w", err))
	}
	if dead, err := e.env.Cat.DeadVersions(); err != nil || dead != 0 {
		errs = append(errs, fmt.Errorf("dead versions after vacuum: %d (%v)", dead, err))
	}
	return errors.Join(errs...)
}

// counters is a point-in-time reading of every cumulative counter the
// metrics are deltas of. All are read from outside the engine: process
// accounting, the Go runtime, and the engine's public stats snapshots.
type counters struct {
	wall         time.Time
	cpu          time.Duration // user+sys, getrusage(RUSAGE_SELF)
	gcCPU        float64       // seconds, runtime/metrics
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPauseNs    uint64
	cost         float64
	pageReads    int64
	pageWrites   int64
	cacheHits    int64
	cacheMisses  int64
	cacheInval   int64
	brokerWaitNs int64
	statsVersion int64
}

func (e *engine) read() counters {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	snap := e.env.Meter.Snapshot()
	cs := e.mgr.CacheStats()
	return counters{
		wall:         time.Now(),
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:        gc[0].Value.Float64(),
		mallocs:      ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		gcCycles:     ms.NumGC,
		gcPauseNs:    ms.PauseTotalNs,
		cost:         snap.Cost(),
		pageReads:    snap.PageReads,
		pageWrites:   snap.PageWrites,
		cacheHits:    cs.Hits,
		cacheMisses:  cs.Misses,
		cacheInval:   cs.Invalidations,
		brokerWaitNs: e.mgr.Broker().Stats().WaitNanos,
		statsVersion: e.env.Cat.StatsVersion(),
	}
}

// delta is the movement of every counter over measured windows; deltas
// of several rounds add up.
type delta struct {
	wall         time.Duration
	cpu          time.Duration
	gcCPU        float64
	mallocs      float64
	allocBytes   float64
	gcCycles     float64
	gcPauseNs    float64
	cost         float64
	pageReads    float64
	pageWrites   float64
	cacheHits    float64
	cacheMisses  float64
	cacheInval   float64
	brokerWaitNs float64
	statsVersion float64
}

func (d *delta) add(from, to counters) {
	d.wall += to.wall.Sub(from.wall)
	d.cpu += to.cpu - from.cpu
	d.gcCPU += to.gcCPU - from.gcCPU
	d.mallocs += float64(to.mallocs - from.mallocs)
	d.allocBytes += float64(to.allocBytes - from.allocBytes)
	d.gcCycles += float64(to.gcCycles - from.gcCycles)
	d.gcPauseNs += float64(to.gcPauseNs - from.gcPauseNs)
	d.cost += to.cost - from.cost
	d.pageReads += float64(to.pageReads - from.pageReads)
	d.pageWrites += float64(to.pageWrites - from.pageWrites)
	d.cacheHits += float64(to.cacheHits - from.cacheHits)
	d.cacheMisses += float64(to.cacheMisses - from.cacheMisses)
	d.cacheInval += float64(to.cacheInval - from.cacheInval)
	d.brokerWaitNs += float64(to.brokerWaitNs - from.brokerWaitNs)
	d.statsVersion += float64(to.statsVersion - from.statsVersion)
}
