// Command mqr-server serves the mid-query re-optimization engine to
// concurrent clients over HTTP: it loads the TPC-D-style dataset once,
// then accepts SQL sessions that share the catalog, buffer pool, plan
// cache, and one brokered operator-memory pool (the multi-query setting
// that motivates the paper's §2.3 re-allocation).
//
// Usage:
//
//	mqr-server [flags]
//
// mqr-server -h lists the flags. Logs are structured (log/slog text
// format) on stderr, one line per query request; Prometheus metrics are
// at GET /metrics.
//
// Try it:
//
//	mqr-server &
//	mqr -connect localhost:7744 @Q3
//	curl -s localhost:7744/metrics | grep reopt_
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	midquery "repro"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/tenant"
)

func main() {
	var (
		addr    = flag.String("addr", ":7744", "listen address")
		sf      = flag.Float64("sf", 0.01, "TPC-D scale factor")
		stale   = flag.Float64("stale", 0.5, "fraction of data loaded when ANALYZE ran (0 = fresh)")
		zipf    = flag.Float64("zipf", 0, "Zipfian skew z for non-key attributes")
		pool    = flag.Int("pool", 1024, "buffer pool pages (8 KiB each)")
		mempool = flag.Float64("mempool", 16<<20, "shared operator-memory pool in bytes")
		mem     = flag.Float64("mem", 4<<20, "per-query optimize-time memory budget in bytes")
		cache   = flag.Int("cache", 256, "plan cache capacity in plans (-1 disables)")
		qto     = flag.Duration("query-timeout", 0, "default per-query deadline (0 = none)")
		slowMS  = flag.Int64("slow-query-ms", 0, "warn about statements slower than this many milliseconds (0 = off)")
		par     = flag.Int("parallel", 0, "default intra-query degree of parallelism (0 = serial)")
		tenants = flag.String("tenants", "", "tenant classes: name:weight[:priority[:quota_bytes[:max_queued]]],...")
		seed    = flag.Int64("seed", 1, "data generator seed")
		verbose = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	log.Info("loading TPC-D", "sf", *sf, "stale", *stale, "zipf", *zipf)
	db := midquery.Open(midquery.Options{BufferPoolPages: *pool})
	if err := db.LoadTPCD(midquery.TPCDConfig{
		SF: *sf, Zipf: *zipf, Seed: *seed, StaleFrac: *stale,
	}); err != nil {
		log.Error("load failed", "err", err)
		os.Exit(1)
	}
	log.Info("loaded", "cost_units", db.Cost())

	m := db.NewSessionManager(midquery.SessionConfig{
		MemPoolBytes:  *mempool,
		MemBudget:     *mem,
		PlanCacheSize: *cache,
	})
	if *tenants != "" {
		if err := configureTenants(m, *tenants); err != nil {
			log.Error("bad -tenants", "err", err)
			os.Exit(2)
		}
	}
	srv := server.New(m)
	srv.SetLogger(log)
	srv.SetSlowQueryThreshold(time.Duration(*slowMS) * time.Millisecond)
	srv.SetQueryTimeout(*qto)
	srv.SetParallel(*par)
	log.Info("serving",
		"addr", *addr,
		"mem_pool_bytes", *mempool,
		"mem_budget_bytes", *mem,
		"plan_cache", *cache,
		"query_timeout", *qto,
		"slow_query_ms", *slowMS,
		"parallel", *par)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Error("server failed", "err", err)
		os.Exit(1)
	}
}

// configureTenants parses the -tenants flag — comma-separated
// name:weight[:priority[:quota_bytes[:max_queued]]] entries — and
// installs each service class on the manager.
func configureTenants(m *session.Manager, spec string) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 5 {
			return fmt.Errorf("tenant %q: want name:weight[:priority[:quota_bytes[:max_queued]]]", entry)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return fmt.Errorf("tenant %q: empty name", entry)
		}
		var cfg tenant.Config
		var err error
		if cfg.Weight, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return fmt.Errorf("tenant %s: weight: %w", name, err)
		}
		if len(parts) > 2 {
			if cfg.Priority, err = strconv.Atoi(parts[2]); err != nil {
				return fmt.Errorf("tenant %s: priority: %w", name, err)
			}
		}
		if len(parts) > 3 {
			if cfg.QuotaBytes, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return fmt.Errorf("tenant %s: quota_bytes: %w", name, err)
			}
		}
		if len(parts) > 4 {
			if cfg.MaxQueued, err = strconv.Atoi(parts[4]); err != nil {
				return fmt.Errorf("tenant %s: max_queued: %w", name, err)
			}
		}
		m.SetTenantConfig(name, cfg)
	}
	return nil
}
