// Command mqr is an interactive front end to the mid-query
// re-optimization engine: it loads the TPC-D-style dataset into an
// in-process database and runs SQL against it, printing annotated plans,
// result rows, simulated costs, and the dispatcher's re-optimization
// decisions. With -connect it loads nothing and is a thin client of a
// running mqr-server instead.
//
// Usage:
//
//	mqr [flags] [SQL | @Q5 ...]
//
// With no query argument it runs the paper's whole query set. Each
// argument of the form @Q5 names one of the paper's TPC-D queries. mqr exits
// non-zero if any query fails (remaining queries still run). mqr -h
// lists the flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	midquery "repro"
	"repro/internal/reopt"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.01, "TPC-D scale factor")
		mode    = flag.String("mode", "full", "re-optimization mode: off|memory|plan|full|restart")
		stale   = flag.Float64("stale", 0.5, "fraction of data loaded when ANALYZE ran (0 = fresh)")
		zipf    = flag.Float64("zipf", 0, "Zipfian skew z for non-key attributes")
		pool    = flag.Int("pool", 256, "buffer pool pages (8 KiB each)")
		mem     = flag.Float64("mem", 2<<20, "per-query memory budget in bytes")
		explain = flag.Bool("explain", false, "print the annotated plan instead of executing")
		analyze = flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute and print the plan with actuals")
		trace   = flag.Bool("trace", false, "print the query's lifecycle event log")
		timeout = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		par     = flag.Int("parallel", 1, "intra-query degree of parallelism (1 = serial)")
		maxRows = flag.Int("rows", 10, "result rows to print")
		seed    = flag.Int64("seed", 1, "data generator seed")
		connect = flag.String("connect", "", "run queries against a running mqr-server at this address")
		watch   = flag.Duration("watch", 0, "with -connect: poll live progress at this interval instead of querying")
		ten     = flag.String("tenant", "", "with -connect: bill queries to this tenant's service class")
		weight  = flag.Float64("weight", 0, "with -connect and -tenant: set the tenant's fair-share weight (0 = leave as is)")
	)
	flag.Parse()

	if *connect != "" && *watch > 0 {
		os.Exit(runWatch(*connect, *watch))
	}

	queries, err := selectQueries(flag.Args())
	if err != nil {
		fatal(err)
	}

	if *connect != "" {
		os.Exit(runThinClient(*connect, *mode, *ten, *weight, queries, *maxRows, *analyze, *trace, *timeout))
	}

	fmt.Printf("loading TPC-D SF %g (stale=%.2f zipf=%.1f) ...\n", *sf, *stale, *zipf)
	db := midquery.Open(midquery.Options{BufferPoolPages: *pool})
	if err := db.LoadTPCD(midquery.TPCDConfig{
		SF: *sf, Zipf: *zipf, Seed: *seed, StaleFrac: *stale,
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded (%.0f simulated cost units)\n\n", db.Cost())

	md, err := reopt.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	opts := midquery.ExecOptions{Mode: md, MemBudget: *mem, Trace: *trace, Timeout: *timeout, Parallel: *par}
	failed := 0
	for _, nq := range queries {
		fmt.Printf("=== %s\n", nq.name)
		if *explain {
			text, err := db.Explain(nq.sql, opts)
			if err != nil {
				queryError(nq.name, err, &failed)
				continue
			}
			fmt.Println(text)
			continue
		}
		db.DropCaches()
		var res *midquery.Result
		var err error
		if *analyze {
			res, err = db.ExplainAnalyze(nq.sql, opts)
		} else {
			res, err = db.Exec(nq.sql, opts)
		}
		if err != nil {
			queryError(nq.name, err, &failed)
			continue
		}
		if res.RowsAffected > 0 {
			fmt.Printf("cost=%.0f rows_affected=%d\n", res.Cost, res.RowsAffected)
		} else {
			fmt.Printf("cost=%.0f rows=%d collectors=%d reallocs=%d switches=%d\n",
				res.Cost, len(res.Rows), res.Stats.CollectorsInserted,
				res.Stats.MemReallocs, res.Stats.PlanSwitches)
		}
		if res.Stats.Degree > 1 {
			fmt.Printf("degree=%d workers=%d\n", res.Stats.Degree, res.Stats.WorkersSpawned)
		}
		for _, d := range res.Stats.Decisions {
			fmt.Println("  " + d.String())
		}
		printBody(res.Plan, res.Trace, res.Columns, len(res.Rows), *maxRows,
			func(i int) string { return res.Rows[i].String() })
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mqr: %d of %d queries failed\n", failed, len(queries))
		os.Exit(1)
	}
}

// printBody renders what a local and a remote result share: the
// annotated plan, the event log, the column header, and the first
// maxRows of n rows, each rendered by row.
func printBody(planText string, trace []midquery.TraceEvent, cols []string, n, maxRows int, row func(i int) string) {
	if planText != "" {
		fmt.Print(planText)
	}
	for _, ev := range trace {
		fmt.Println("  " + ev.String())
	}
	if len(cols) > 0 {
		fmt.Println("  " + strings.Join(cols, " | "))
	}
	for i := 0; i < n; i++ {
		if i >= maxRows {
			fmt.Printf("  ... %d more rows\n", n-i)
			break
		}
		fmt.Println("  " + row(i))
	}
	fmt.Println()
}

// runThinClient sends the queries to a running mqr-server and renders
// the responses; returns the process exit code.
func runThinClient(addr, mode, ten string, weight float64, queries []namedQuery, maxRows int, analyze, trace bool, timeout time.Duration) int {
	c, err := server.DialTenant(addr, ten)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqr:", err)
		return 1
	}
	if weight > 0 && ten != "" {
		cfg := tenant.Config{Weight: weight}
		if err := c.ConfigureTenant(ten, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "mqr:", err)
			return 1
		}
	}
	failed := 0
	for _, nq := range queries {
		fmt.Printf("=== %s\n", nq.name)
		res, err := c.Exec(server.QueryRequest{
			SQL: nq.sql, Mode: mode, Explain: analyze, Trace: trace,
			TimeoutMs: timeout.Milliseconds(),
		})
		if err != nil {
			queryError(nq.name, err, &failed)
			continue
		}
		fmt.Printf("cost=%.0f rows=%d tag=%s cache_hit=%t", res.Cost, len(res.Rows), res.Query, res.CacheHit)
		if res.RowsAffected > 0 {
			fmt.Printf(" rows_affected=%d", res.RowsAffected)
		}
		if res.Stats != nil {
			fmt.Printf(" collectors=%d reallocs=%d switches=%d",
				res.Stats.CollectorsInserted, res.Stats.MemReallocs, res.Stats.PlanSwitches)
		}
		fmt.Println()
		printBody(res.Plan, res.Trace, res.Columns, len(res.Rows), maxRows,
			func(i int) string { return "(" + strings.Join(res.Rows[i], ", ") + ")" })
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mqr: %d of %d queries failed\n", failed, len(queries))
		return 1
	}
	return 0
}

// runWatch polls /status and /progress, rendering each running query's
// fraction, live suboptimality score, and per-operator rows until the
// process is interrupted; returns the process exit code.
func runWatch(addr string, interval time.Duration) int {
	c, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqr:", err)
		return 1
	}
	for {
		st, err := c.Status()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mqr:", err)
			return 1
		}
		ps, err := c.Progress("")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mqr:", err)
			return 1
		}
		fmt.Printf("--- %s  queries=%d running=%d broker_avail=%.0fMB queue=%d\n",
			time.Now().Format("15:04:05"), st.Queries, len(st.Running),
			st.Broker.AvailBytes/(1<<20), st.Broker.Waiting)
		for _, p := range ps {
			fmt.Printf("%-10s %5.1f%%  score=%.2f  cost=%.0f/%.0f  ckpt=%d sw=%d  %s\n",
				p.Query, p.Fraction*100, p.Score, p.Cost, p.EstCost,
				p.Checkpoints, p.Switches, truncate(p.SQL, 60))
			for _, o := range p.Operators {
				fmt.Printf("  %s%-20s %-8s rows=%d/%.0f\n",
					strings.Repeat("  ", o.Depth), o.Label, o.State, o.Rows, o.EstRows)
			}
		}
		time.Sleep(interval)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func selectQueries(args []string) ([]namedQuery, error) {
	all := midquery.TPCDQueries()
	if len(args) == 0 {
		queries := make([]namedQuery, len(all))
		for i, q := range all {
			queries[i] = namedQuery{q.Name + " (" + string(q.Class) + ")", q.SQL}
		}
		return queries, nil
	}
	if !strings.HasPrefix(args[0], "@") {
		return []namedQuery{{"query", strings.Join(args, " ")}}, nil
	}
	queries := make([]namedQuery, len(args))
	for k, arg := range args {
		i := slices.IndexFunc(all, func(q midquery.TPCDQuery) bool { return "@"+q.Name == arg })
		if i < 0 {
			return nil, fmt.Errorf("tpcd: no query %q", strings.TrimPrefix(arg, "@"))
		}
		queries[k] = namedQuery{all[i].Name, all[i].SQL}
	}
	return queries, nil
}

type namedQuery struct {
	name string
	sql  string
}

// queryError reports one failed query and keeps going; the process
// exits non-zero at the end.
func queryError(name string, err error, failed *int) {
	fmt.Fprintf(os.Stderr, "mqr: %s: %v\n", name, err)
	*failed++
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqr:", err)
	os.Exit(1)
}
