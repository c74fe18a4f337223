package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tenant"
	"repro/internal/types"
)

// Memory budgets for the matrix: tiny forces aggregate and hash-join
// spills on almost every generated dataset; big keeps everything
// resident so the same query exercises the in-memory paths.
const (
	tinyBudget = 96 << 10
	bigBudget  = 4 << 20
)

// errInjected is the sentinel armed at fault sites: seeing it back (or
// any error at all, for cascades that rewrap) is an accepted outcome of
// a fault run — the invariants that must still hold are the cleanup
// ones.
var errInjected = errors.New("fuzz: injected fault")

// RunConfig is one engine configuration in the matrix. It is part of
// the replayable seed file, so every knob that affects the run must
// live here, not in package state.
type RunConfig struct {
	Name   string     `json:"name"`
	Mode   reopt.Mode `json:"mode"`
	Degree int        `json:"degree"`
	Budget float64    `json:"budget"`
	// Forced overrides the checkpoint thresholds (θ₁ huge, θ₂ tiny) so
	// any estimate drift trips Eq1 and any improvement clears Eq2 —
	// the configuration that makes mid-query switches routine instead
	// of rare.
	Forced bool `json:"forced,omitempty"`
	// Splice switches via the Figure-5 in-place splice instead of
	// materialize-and-resubmit.
	Splice bool `json:"splice,omitempty"`
	// Warm executes the query twice on one manager, with the case's
	// alternate query (star for narrow, narrow for star) in between:
	// the second run must come from the plan cache, and all three must
	// agree with their references. When the first run fed its observed
	// rows back into the cache entry, the second must start from the
	// re-planned entry.
	Warm bool `json:"warm,omitempty"`
	// CancelTick > 0 cancels the query's context from inside the
	// engine at the Nth scanned tuple (serial runs only).
	CancelTick int `json:"cancel_tick,omitempty"`
	// FaultSite, when set, arms errInjected at that site's Nth hit
	// (serial runs only).
	FaultSite  string `json:"fault_site,omitempty"`
	FaultAfter int    `json:"fault_after,omitempty"`
	// Preempt runs the query as a low-priority tenant and requests a
	// checkpoint suspension from its first re-optimization checkpoint:
	// the lease is released, the query re-admits through the fair-share
	// queue and re-executes. Answers must still match the reference and
	// the residue invariants must absorb the extra release/re-admit
	// cycle.
	Preempt bool `json:"preempt,omitempty"`
}

// Matrix returns the static configuration grid every case runs under.
// Cancellation and fault-site configurations are derived per case from
// a recording pass (see RunCase) because their trigger points depend on
// how many times the query actually hits each site.
func Matrix(c Case) []RunConfig {
	var m []RunConfig
	for _, deg := range []int{1, 2, 4} {
		for _, mode := range []reopt.Mode{reopt.ModeOff, reopt.ModeFull} {
			for _, b := range []struct {
				name string
				v    float64
			}{{"tiny", tinyBudget}, {"big", bigBudget}} {
				m = append(m, RunConfig{
					Name:   fmt.Sprintf("%s-d%d-%s", mode, deg, b.name),
					Mode:   mode,
					Degree: deg,
					Budget: b.v,
				})
			}
		}
	}
	return append(m,
		RunConfig{Name: "memory-d1-tiny", Mode: reopt.ModeMemoryOnly, Degree: 1, Budget: tinyBudget},
		RunConfig{Name: "plan-d1-tiny", Mode: reopt.ModePlanOnly, Degree: 1, Budget: tinyBudget, Forced: true},
		RunConfig{Name: "restart-d1-tiny", Mode: reopt.ModeRestart, Degree: 1, Budget: tinyBudget},
		RunConfig{Name: "restart-d1-big", Mode: reopt.ModeRestart, Degree: 1, Budget: bigBudget},
		RunConfig{Name: "forced-d1-tiny", Mode: reopt.ModeFull, Degree: 1, Budget: tinyBudget, Forced: true},
		RunConfig{Name: "forced-d1-tiny-splice", Mode: reopt.ModeFull, Degree: 1, Budget: tinyBudget, Forced: true, Splice: true},
		RunConfig{Name: "forced-d4-tiny", Mode: reopt.ModeFull, Degree: 4, Budget: tinyBudget, Forced: true},
		RunConfig{Name: "forced-restart-d1-tiny", Mode: reopt.ModeRestart, Degree: 1, Budget: tinyBudget, Forced: true},
		RunConfig{Name: "warm-d1-big", Mode: reopt.ModeFull, Degree: 1, Budget: bigBudget, Warm: true},
		RunConfig{Name: "warm-forced-d1-tiny", Mode: reopt.ModeFull, Degree: 1, Budget: tinyBudget, Forced: true, Warm: true},
		RunConfig{Name: "preempt-d1-tiny", Mode: reopt.ModeFull, Degree: 1, Budget: tinyBudget, Forced: true, Preempt: true},
		RunConfig{Name: "preempt-d4-tiny", Mode: reopt.ModeFull, Degree: 4, Budget: tinyBudget, Forced: true, Preempt: true},
	)
}

// engineCounters are the monotonic metrics checked across every run: a
// counter that ever decreases within one manager's lifetime is a bug
// regardless of what the query did.
var engineCounters = []string{
	"mqr_queries_total",
	"mqr_query_errors_total",
	"mqr_queries_cancelled_total",
	"reopt_collectors_inserted_total",
	"reopt_observations_total",
	"reopt_memory_reallocs_total",
	"reopt_considered_total",
	"reopt_plan_switches_total",
	"collector_stat_cost_units_total",
	"mqr_query_cost_units_total",
}

func counterSnapshot(m *session.Manager) map[string]float64 {
	out := make(map[string]float64, len(engineCounters))
	for _, name := range engineCounters {
		if c, ok := m.Registry().Get(name).(*obs.Counter); ok {
			out[name] = c.Value()
		}
	}
	return out
}

func newManager(env *Env, budget float64) *session.Manager {
	return session.NewManager(env.Cat, env.Pool, env.Meter, session.Config{
		MemPoolBytes:  4 * budget,
		MemBudget:     budget,
		PlanCacheSize: 64,
	})
}

// ledger holds what checkCharges reads of one run: the engine's meter
// and the background account when the run began, and what every
// statement the run executed returned.
type ledger struct {
	engine, background float64
	results            []*session.Result
	failed             bool // a statement returned an error, and no Cost
}

func openLedger(env *Env) *ledger {
	env.Background.Flush()
	return &ledger{engine: env.Meter.Cost(), background: env.Background.Cost()}
}

func (l *ledger) note(res *session.Result, err error) {
	if err != nil {
		l.failed = true
	} else {
		l.results = append(l.results, res)
	}
}

// checkCharges is the one-meter-per-statement invariant: over a run
// whose statements all succeed, their Result.Cost and the background
// account's delta add up to what the engine's meter moved by, and no
// query's meter (its progress record's) holds a charge it has not
// forwarded — one made after the query ended, or an exit path that
// skips the flush. A statement charged for another's work, as one whose
// cost is a window over the engine's meter is when another overlaps it,
// counts that work twice.
func (l *ledger) checkCharges(env *Env, mgr *session.Manager) string {
	env.Background.Flush()
	sum := env.Background.Cost() - l.background
	for _, res := range l.results {
		if p := mgr.Progress().Get(res.Query); p != nil {
			if u := p.Meter.Unflushed(); u != (storage.Snapshot{Weights: u.Weights}) {
				return fmt.Sprintf("%s's meter kept %v from the engine's meter", res.Query, u)
			}
		}
		sum += res.Cost
	}
	// A stat tuple is the smallest charge, 0.001; summed in another
	// order the costs differ by rounding alone.
	if moved := env.Meter.Cost() - l.engine; !l.failed && math.Abs(moved-sum) > 1e-6 {
		return fmt.Sprintf("the statements and the background account cost %g, the engine's meter moved by %g", sum, moved)
	}
	return ""
}

// runOne executes the case once (twice when Warm) under one
// configuration and checks every invariant. It returns a deterministic
// verdict line and, on any violation, a replayable Failure.
func runOne(env *Env, rc RunConfig) (string, *Failure) {
	fail := func(format string, args ...any) (string, *Failure) {
		msg := fmt.Sprintf(format, args...)
		return fmt.Sprintf("%s: FAIL %s", rc.Name, msg),
			&Failure{Case: env.Case, Config: rc, Err: msg}
	}

	books := openLedger(env)
	mgr := newManager(env, rc.Budget)
	sess := mgr.Session()
	meterBefore := env.Meter.Snapshot()

	// cfg holds the thresholds the run's decisions are checked against.
	cfg := reopt.DefaultConfig(rc.Mode)
	if rc.Forced {
		// θ₁ enormous widens Eq1's inaccuracy band trigger; θ₂ near
		// zero accepts any cheaper plan at Eq2.
		cfg.Theta1, cfg.Theta2 = 100, 0.001
	}
	opts := session.Options{
		Mode:         rc.Mode,
		Params:       env.Params,
		SpliceSwitch: rc.Splice,
		Parallel:     rc.Degree,
		Seed:         env.Case.Seed,
		Theta1:       cfg.Theta1,
		Theta2:       cfg.Theta2,
	}
	if rc.Preempt {
		// Multi-tenant preemption schedule: the query runs as the
		// low-priority tenant and is suspended from inside its own first
		// checkpoint — deterministic, unlike racing a real high-priority
		// admission against it. Small cases may never reach a checkpoint;
		// then the run degrades to a plain forced run and says so in the
		// verdict ("ok" instead of "preempted").
		mgr.SetTenantConfig("batch", tenant.Config{Weight: 1, Priority: 0})
		mgr.SetTenantConfig("prod", tenant.Config{Weight: 3, Priority: 1})
		opts.Tenant = "batch"
		var once sync.Once
		opts.CheckpointHook = func(int) {
			once.Do(func() {
				for _, tag := range mgr.Running() {
					mgr.Preempt(tag)
				}
			})
		}
	}

	ctx := context.Background()
	injected := rc.CancelTick > 0 || rc.FaultSite != ""
	if injected {
		inj := faultinject.Enable()
		defer faultinject.Disable()
		if rc.CancelTick > 0 {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			ctx = cctx
			inj.Arm("exec.scan.next", faultinject.Fault{After: rc.CancelTick, Do: cancel})
		} else {
			inj.Arm(rc.FaultSite, faultinject.Fault{After: rc.FaultAfter, Err: errInjected})
		}
	}

	type step struct {
		sql     string
		want    []string
		mustHit bool
	}
	steps := []step{{sql: env.SQL, want: env.Want}}
	if rc.Warm {
		steps = append(steps,
			step{sql: env.AltSQL, want: env.AltWant},
			step{sql: env.SQL, want: env.Want, mustHit: true})
	}
	outcome := "ok"
	learned := false // the first run re-planned its cache entry
	for i, s := range steps {
		before := counterSnapshot(mgr)
		feedbacks := mgr.CacheStats().Feedbacks
		res, err := sess.Exec(ctx, s.sql, opts)
		books.note(res, err)
		if i == 0 {
			learned = mgr.CacheStats().Feedbacks > feedbacks
		}

		after := counterSnapshot(mgr)
		for _, name := range engineCounters {
			if after[name] < before[name] {
				return fail("counter %s decreased: %g -> %g", name, before[name], after[name])
			}
		}
		if got := after["mqr_queries_total"] - before["mqr_queries_total"]; got != 1 {
			return fail("mqr_queries_total advanced by %g, want 1", got)
		}

		switch {
		case err == nil:
			if msg := diffRows(fmt.Sprintf("%q", s.sql), res.Rows, s.want); msg != "" {
				return fail("%s", msg)
			}
			if s.mustHit && !res.CacheHit {
				return fail("second run missed the plan cache")
			}
			if s.mustHit && learned && !res.FedBack {
				return fail("the first run re-planned its cache entry, the second did not start from it")
			}
			if msg := checkDecisions(res, cfg, mgr); msg != "" {
				return fail("%s", msg)
			}
			if rc.Preempt && res.Preempted > 0 {
				outcome = "preempted"
			}
		case rc.CancelTick > 0 && errors.Is(err, context.Canceled):
			outcome = "cancelled"
		case injected:
			// A fault (or a cancel racing completion) may surface as any
			// error, possibly rewrapped; cleanup invariants below are
			// the real check. The classification keeps verdicts
			// deterministic without depending on exact message text.
			if errors.Is(err, errInjected) {
				outcome = "injected"
			} else {
				outcome = "err"
			}
		default:
			return fail("unexpected error: %v", err)
		}
	}

	if msg := checkResidue(env, mgr); msg != "" {
		return fail("%s", msg)
	}
	if msg := checkRegionCharges(mgr.EngineTrace(), env.Meter.Snapshot().Sub(meterBefore), rc.Degree); msg != "" {
		return fail("%s", msg)
	}
	if msg := books.checkCharges(env, mgr); msg != "" {
		return fail("%s", msg)
	}
	return fmt.Sprintf("%s: %s", rc.Name, outcome), nil
}

// diffRows compares an answer with its canonical reference.
func diffRows(label string, rows []types.Tuple, want []string) string {
	got := Canonical(rows)
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d rows, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: row %d: got %s, want %s", label, i, got[i], want[i])
		}
	}
	return ""
}

// checkDecisions holds a successful query's checkpoint records to
// accounts kept apart from them: (a) MemReallocs and PlanSwitches count
// the records that moved a grant and switched plans, and the records'
// broker traffic is the lease's own account (Result.Broker); (b) each
// record's cause follows from its own numbers under the run's θ₁, θ₂ and
// switch margin; (c) the finished progress snapshot counts the same
// checkpoints and switches, unless the query was preempted (a preempted
// attempt's records go with its Stats and lease; the progress record
// carries on); (d) every collector report reached a checkpoint: the
// reports number the checkpoint records (a prepared statement's
// parametric record aside), so no collector runs whose report nothing
// reads; (e) the run's mode allows every record (modeAllows).
func checkDecisions(res *session.Result, cfg reopt.Config, mgr *session.Manager) string {
	st := res.Stats
	var tally [6]float64
	checkpoints := 0
	for _, d := range st.Decisions {
		checkpoints += int(one(d.Cause != reopt.CauseParametric))
		for k, v := range [6]float64{one(d.Moved > 0), one(d.Switched()),
			one(d.Returned > 0), d.Returned, one(d.Grown > 0), d.Grown} {
			tally[k] += v
		}
		suspect := d.Estimate > 0 && (d.Improved-d.Estimate)/d.Estimate > cfg.Theta2
		dear := d.TOpt/d.Improved > cfg.Theta1
		wins := d.Trial > 0 && d.Trial < d.Improved*(1-cfg.SwitchMargin)
		follows := map[reopt.Cause]bool{ // causes taken without a plan decision are not judged
			reopt.CauseEq2:       !suspect,
			reopt.CauseEq1:       suspect && dear,
			reopt.CauseRestart:   suspect && !dear && cfg.Mode == reopt.ModeRestart,
			reopt.CauseTrialWon:  suspect && !dear && wins,
			reopt.CauseTrialLost: suspect && !dear && !wins,
		}
		if ok, judged := follows[d.Cause]; judged && !ok {
			return fmt.Sprintf("decision %q does not follow from its numbers under θ₁=%g θ₂=%g margin=%g",
				d, cfg.Theta1, cfg.Theta2, cfg.SwitchMargin)
		}
	}
	if msg := modeAllows(cfg.Mode, st); msg != "" {
		return fmt.Sprintf("%v mode: %s", cfg.Mode, msg)
	}
	if b := res.Broker; [6]float64{float64(st.MemReallocs), float64(st.PlanSwitches), float64(b.Returns),
		b.ReturnedBytes, float64(b.Growths), b.GrownBytes} != tally {
		return fmt.Sprintf("re-allocations %d, switches %d and the lease's account %+v; the decisions count %v",
			st.MemReallocs, st.PlanSwitches, b, tally)
	}
	if st.Observations != checkpoints {
		return fmt.Sprintf("%d collector reports reached the dispatcher, %d checkpoints read one",
			st.Observations, checkpoints)
	}
	for _, p := range mgr.ProgressSnapshots(false, true) {
		if p.Query == res.Query && res.Preempted == 0 &&
			(p.Checkpoints != int64(len(st.Decisions)) || p.Switches != int64(st.PlanSwitches)) {
			return fmt.Sprintf("progress shows %d checkpoints and %d switches, the decisions %d and %d",
				p.Checkpoints, p.Switches, len(st.Decisions), st.PlanSwitches)
		}
	}
	return ""
}

// modeAllows is what each mode may record, written out here rather than
// read from the dispatcher's own table: off reaches no checkpoint; only
// memory-only records its cause, and it never plans; plan-only and
// restart never re-allocate; restart never runs a trial.
func modeAllows(mode reopt.Mode, st *reopt.Stats) string {
	if mode == reopt.ModeOff && (len(st.Decisions) > 0 || st.CollectorsInserted != 0) {
		return fmt.Sprintf("%d collectors, %d decisions", st.CollectorsInserted, len(st.Decisions))
	}
	memOnly := mode == reopt.ModeMemoryOnly
	for _, d := range st.Decisions {
		trial := d.Trial != 0 || d.Cause == reopt.CauseTrialWon || d.Cause == reopt.CauseTrialLost
		if (d.Cause == reopt.CauseMemoryOnly) != memOnly || memOnly && (d.TOpt != 0 || trial) ||
			(mode == reopt.ModePlanOnly || mode == reopt.ModeRestart) && d.Realloc ||
			mode == reopt.ModeRestart && trial {
			return fmt.Sprintf("decision %q", d)
		}
	}
	return ""
}

func one(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkRegionCharges is the meter's flush invariant: at query end the
// query meter holds what the serial operators charged it plus everything
// the workers of every parallel region charged their tributary meters.
// A tributary forwards in batches, so a missing flush point — a worker
// exit path that skips it — shows as a total that is short. Every region
// reports, in the trace event it closes with, what its tributaries
// counted and how much of that they never forwarded; the run fails if
// any region kept anything back, if the regions together counted more
// tuple or statistics work than the query meter moved by, or if a serial
// run opened a region at all. It runs after failed and cancelled queries
// too: the engine-wide trace ring outlives them.
func checkRegionCharges(tr *obs.Trace, moved storage.Snapshot, degree int) string {
	var tuples, stats int64
	for _, ev := range tr.Events() {
		if ev.Kind != "exchange" {
			continue
		}
		if degree < 2 {
			return fmt.Sprintf("a degree-%d run closed a parallel region: %v", degree, ev)
		}
		if kept, _ := ev.Attrs["unflushed"].(int64); kept != 0 {
			return fmt.Sprintf("a parallel region closed with %d charges its workers never forwarded to the query meter: %v", kept, ev)
		}
		t, _ := ev.Attrs["tuples"].(int64)
		st, _ := ev.Attrs["stat_tuples"].(int64)
		tuples, stats = tuples+t, stats+st
	}
	if tr.Dropped() == 0 && (tuples > moved.TupleCPU || stats > moved.StatCPU) {
		return fmt.Sprintf("parallel regions charged %d tuples and %d stat tuples, the query meter moved by %d and %d",
			tuples, stats, moved.TupleCPU, moved.StatCPU)
	}
	return ""
}

// checkResidue verifies the cleanup invariants that must hold after
// every run, successful or not: no temp tables survive, the disk holds
// exactly the base tables' pages, every byte leased from the broker
// came back, and the running-query registry is empty.
func checkResidue(env *Env, mgr *session.Manager) string {
	if temps := env.Cat.TempTables(); len(temps) != 0 {
		return fmt.Sprintf("temp tables leaked: %v", temps)
	}
	want := 0
	for _, n := range env.tablePages() {
		want += n
	}
	if got := env.Pool.Disk().NumPages(); got != want {
		return fmt.Sprintf("disk pages %d, the tables hold %d (leaked heap files)", got, want)
	}
	// Grants are float64s reallocated mid-query in fractional shares, so
	// the pool balances back to within rounding noise, not exactly.
	if bs := mgr.Broker().Stats(); math.Abs(bs.AvailBytes-bs.PoolBytes) > 1e-3 {
		return fmt.Sprintf("broker imbalance: %.6f of %.0f bytes available (delta %g)",
			bs.AvailBytes, bs.PoolBytes, bs.PoolBytes-bs.AvailBytes)
	}
	if running := mgr.Running(); len(running) != 0 {
		return fmt.Sprintf("queries still registered as running: %v", running)
	}
	return ""
}

// siteHits is one fault site's observed hit count from the recording
// pass.
type siteHits struct {
	Site string
	Hits int
}

// recordSites runs the query once with the injector enabled but nothing
// armed, returning every site the query actually reaches and how often
// — the sampling frame for the cancellation tick and the fault sweep.
// The pass runs forced (like the sweep itself) so switch-path sites
// (checkpointing, temp-table cleanup, remainder dispatch) show up.
func recordSites(env *Env) ([]siteHits, error) {
	inj := faultinject.Enable()
	defer faultinject.Disable()
	mgr := newManager(env, tinyBudget)
	_, err := mgr.Session().Exec(context.Background(), env.SQL, session.Options{
		Mode:   reopt.ModeFull,
		Params: env.Params,
		Seed:   env.Case.Seed,
		Theta1: 100,
		Theta2: 0.001,
	})
	if err != nil {
		return nil, err
	}
	sites := inj.Seen()
	sort.Strings(sites)
	out := make([]siteHits, 0, len(sites))
	for _, s := range sites {
		out = append(out, siteHits{Site: s, Hits: inj.Hits(s)})
	}
	return out, nil
}
