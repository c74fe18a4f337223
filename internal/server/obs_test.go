package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/session"
	"repro/internal/tpcd"
)

// TestServerMetricsEndpoint: /metrics speaks the Prometheus text
// format and carries the engine, broker, and plan-cache series.
func TestServerMetricsEndpoint(t *testing.T) {
	ts, _ := startTPCD(t, session.Config{})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(QueryRequest{SQL: tpcd.Queries()[0].SQL, Mode: "full"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"reopt_plan_switches_total",
		"broker_queue_depth",
		"mqr_queries_total",
		"plancache_misses_total",
		"plancache_feedbacks_total",
		"collector_overhead_fraction",
		"mqr_query_cost_units_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(body, "# TYPE reopt_plan_switches_total counter") {
		t.Error("/metrics missing TYPE line for reopt_plan_switches_total")
	}
}

// TestServerExplainAnalyzeOverHTTP: explain+trace on a query request
// come back as the annotated plan and the lifecycle event log.
func TestServerExplainAnalyzeOverHTTP(t *testing.T) {
	ts, _ := startTPCD(t, session.Config{})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(QueryRequest{SQL: tpcd.Queries()[2].SQL, Mode: "full", Explain: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "actual rows=") || !strings.Contains(res.Plan, "est rows=") {
		t.Errorf("explain plan lacks annotations:\n%s", res.Plan)
	}
	if len(res.Trace) == 0 {
		t.Error("trace requested but no events returned")
	}
	// Observability stays opt-in: a plain request carries neither.
	plain, err := c.Exec(QueryRequest{SQL: tpcd.Queries()[2].SQL, Mode: "full"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Plan != "" || len(plain.Trace) != 0 {
		t.Error("plain request returned observability payload")
	}
}

// TestServerStatusCounters: /status reports engine totals alongside the
// broker and cache snapshots.
func TestServerStatusCounters(t *testing.T) {
	ts, _ := startTPCD(t, session.Config{})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(QueryRequest{SQL: tpcd.Queries()[0].SQL}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < 1 {
		t.Errorf("status queries = %d after one query", st.Queries)
	}
	if st.Sessions < 1 {
		t.Errorf("status sessions = %d with one live session", st.Sessions)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("status uptime = %g", st.UptimeSeconds)
	}
	if st.Broker.PoolBytes <= 0 {
		t.Errorf("status broker pool = %g", st.Broker.PoolBytes)
	}
}
