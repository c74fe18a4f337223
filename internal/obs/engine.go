package obs

// EngineMetrics bundles the re-optimization engine's counters, updated
// once per query by the session layer. The names instrument the
// paper's mechanisms directly: collectors (§2.2), memory re-allocation
// (§2.3), plan switches (§2.4), and the SCIA's μ overhead budget
// (§2.5) — see DESIGN.md's observability section for the full mapping.
type EngineMetrics struct {
	Queries     *Counter
	QueryErrors *Counter
	// QueriesCancelled counts queries aborted by user cancel or
	// deadline (a subset of QueryErrors).
	QueriesCancelled *Counter

	CollectorsInserted *Counter
	Observations       *Counter
	MemReallocs        *Counter
	ReoptConsidered    *Counter
	PlanSwitches       *Counter

	// StatCostUnits / QueryCostUnits make the collector overhead
	// fraction computable over any scrape window as the ratio of the
	// two counters; OverheadFraction is the last query's instantaneous
	// value, to compare against the configured μ (MuBudget).
	StatCostUnits    *Counter
	QueryCostUnits   *Counter
	OverheadFraction *Gauge
	MuBudget         *Gauge

	QueryCost *Histogram

	// QueryDuration and BrokerWait are real wall-clock latency
	// histograms (seconds): p99 end-to-end latency and the admission
	// queue's contribution to it, which the cost-unit metrics above
	// cannot show. BrokerWaitTenant splits the admission wait by
	// tenant, so one tenant's queueing is attributable under QoS load.
	QueryDuration    *Histogram
	BrokerWait       *Histogram
	BrokerWaitTenant *HistogramVec

	// Preemptions counts checkpoint preemptions honored: a running
	// query released its lease at a re-optimization checkpoint so a
	// higher-priority waiter could run, then re-queued.
	Preemptions *Counter

	// TraceDropped counts lifecycle events the per-query trace rings
	// overwrote — nonzero means trace dumps are truncated.
	TraceDropped *Counter

	// DML counters: row versions written by committed transactions,
	// transaction outcomes, and first-writer-wins conflicts (each
	// conflict also aborts a transaction).
	RowsWritten    *Counter
	TxnsCommitted  *Counter
	TxnsAborted    *Counter
	WriteConflicts *Counter
}

// NewEngineMetrics registers the engine metric set on a registry.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Queries:          r.NewCounter("mqr_queries_total", "Queries executed"),
		QueryErrors:      r.NewCounter("mqr_query_errors_total", "Queries that returned an error"),
		QueriesCancelled: r.NewCounter("mqr_queries_cancelled_total", "Queries aborted by cancellation or deadline"),

		CollectorsInserted: r.NewCounter("reopt_collectors_inserted_total", "Statistics collectors inserted by the SCIA (sec 2.2/2.5)"),
		Observations:       r.NewCounter("reopt_observations_total", "Collector reports delivered to the dispatcher (sec 2.2)"),
		MemReallocs:        r.NewCounter("reopt_memory_reallocs_total", "Checkpoints whose memory re-allocation moved a grant (sec 2.3)"),
		ReoptConsidered:    r.NewCounter("reopt_considered_total", "Checkpoints where Equations 1 and 2 were evaluated (sec 2.4)"),
		PlanSwitches:       r.NewCounter("reopt_plan_switches_total", "Mid-query plan switches taken (sec 2.4)"),

		StatCostUnits:    r.NewCounter("collector_stat_cost_units_total", "Simulated cost charged to statistics collection"),
		QueryCostUnits:   r.NewCounter("mqr_query_cost_units_total", "Simulated cost charged to query execution"),
		OverheadFraction: r.NewGauge("collector_overhead_fraction", "Last query's statistics-collection share of total cost (budgeted by mu, sec 2.5)"),
		MuBudget:         r.NewGauge("reopt_mu_budget", "Configured mu: maximum acceptable collection overhead fraction"),

		QueryCost: r.NewHistogram("mqr_query_cost_units", "Per-query simulated execution cost",
			[]float64{100, 1000, 10000, 100000, 1e6, 1e7}),

		QueryDuration: r.NewHistogram("mqr_query_duration_seconds", "Per-query wall-clock latency",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}),
		BrokerWait: r.NewHistogram("mqr_broker_wait_seconds", "Wall-clock time spent queued for memory admission",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}),
		BrokerWaitTenant: r.NewHistogramVec("mqr_broker_wait_tenant_seconds",
			"Wall-clock time spent queued for memory admission, by tenant", "tenant",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}),

		Preemptions: r.NewCounter("mqr_preemptions_total",
			"Queries suspended at a re-optimization checkpoint by priority preemption"),

		TraceDropped: r.NewCounter("mqr_trace_dropped_total", "Trace events overwritten by full ring buffers"),

		RowsWritten:    r.NewCounter("mqr_rows_written_total", "Row versions written by committed transactions (update = delete + insert)"),
		TxnsCommitted:  r.NewCounter("mqr_txns_committed_total", "Write transactions committed"),
		TxnsAborted:    r.NewCounter("mqr_txns_aborted_total", "Write transactions aborted (rollback, error, or conflict)"),
		WriteConflicts: r.NewCounter("mqr_write_conflicts_total", "First-writer-wins conflicts (losing transaction aborted)"),
	}
}

// RecordQuery folds one successful query's dispatcher statistics into
// the counters. statCost is the simulated cost charged to statistics
// collection during the query's window; cost is the query's total.
func (em *EngineMetrics) RecordQuery(cost, statCost, mu float64,
	collectors, observations, reallocs, considered, switches int) {
	em.Queries.Inc()
	em.CollectorsInserted.Add(float64(collectors))
	em.Observations.Add(float64(observations))
	em.MemReallocs.Add(float64(reallocs))
	em.ReoptConsidered.Add(float64(considered))
	em.PlanSwitches.Add(float64(switches))
	em.StatCostUnits.Add(statCost)
	em.QueryCostUnits.Add(cost)
	if cost > 0 {
		em.OverheadFraction.Set(statCost / cost)
	}
	em.MuBudget.Set(mu)
	em.QueryCost.Observe(cost)
}
