package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exchange"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// durs picks one duration per traced op (skipping ops where it is 0)
// and returns them in µs.
func (t *tracer) durs(pick func(tracedOp) time.Duration) []float64 {
	var out []float64
	for _, o := range t.ops {
		if d := pick(o); d != 0 {
			out = append(out, us(d))
		}
	}
	return out
}

// classMedians returns, per class of read ops, the median of pick in µs.
func (t *tracer) classMedians(pick func(tracedOp) time.Duration) map[string]float64 {
	by := map[string][]float64{}
	for _, o := range t.ops {
		if d := pick(o); o.read && d != 0 {
			by[o.class] = append(by[o.class], us(d))
		}
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}

// layerMetrics turns the traced ops and operator trees into the
// per-layer metrics.
func (t *tracer) layerMetrics(m map[string]metric) {
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	// Front end. Self times are medians of per-op paired differences:
	// the same op was issued at both levels, so the pairing removes the
	// spread between classes.
	set("server.self_us", median(t.durs(func(o tracedOp) time.Duration { return o.server - o.session })))
	set("session.self_us", median(t.durs(func(o tracedOp) time.Duration {
		if !o.read {
			return 0
		}
		return o.session - o.parse - o.planning() - o.admitRelease - o.runFull
	})))
	bytes, plans, reads := 0.0, 0.0, 0.0
	for _, o := range t.ops {
		bytes += float64(o.respBytes)
		if o.read {
			plans += float64(o.plans)
			reads++
		}
	}
	set("server.resp_bytes_per_op", ratio(bytes, float64(len(t.ops))))
	set("sql.parse_us", median(t.durs(func(o tracedOp) time.Duration { return o.parse })))
	set("optimizer.optimize_us", median(t.durs(func(o tracedOp) time.Duration { return o.optimize })))
	set("optimizer.plans_considered", ratio(plans, reads))
	set("plancache.get_us", median(t.durs(func(o tracedOp) time.Duration { return o.get })))
	set("scia.insert_us", median(t.durs(func(o tracedOp) time.Duration { return o.scia })))
	set("memmgr.admit_release_us", median(t.durs(func(o tracedOp) time.Duration { return o.admitRelease })))
	set("memmgr.allocate_us", median(t.durs(func(o tracedOp) time.Duration { return o.allocate })))

	// reopt and exchange: ratios of class medians of the same optimized
	// plan run both ways, at the request's degree.
	full := t.classMedians(func(o tracedOp) time.Duration { return o.runFull })
	off := t.classMedians(func(o tracedOp) time.Duration { return o.runOff })
	par := t.classMedians(func(o tracedOp) time.Duration { return o.runPar })
	acted, isComplex, anyComplex := map[string]bool{}, map[string]bool{}, false
	for _, o := range t.ops {
		acted[o.class] = acted[o.class] || o.acted
		isComplex[o.class] = o.complex
		anyComplex = anyComplex || o.complex
	}
	var fullOverOff, overhead, speedup, nsPerUnit []float64
	for c, f := range full {
		base := off[c]
		if p, ok := par[c]; ok {
			base = p
			speedup = append(speedup, ratio(off[c], p))
		}
		if isComplex[c] || !anyComplex {
			fullOverOff = append(fullOverOff, ratio(f, base))
		}
		if !acted[c] {
			overhead = append(overhead, ratio(f, base))
		}
	}
	set("reopt.full_over_off_wall", geoMean(fullOverOff))
	if len(overhead) > 0 {
		set("reopt.overhead_frac", geoMean(overhead)-1)
	}
	set("exchange.speedup_d2", geoMean(speedup))

	// Model against reality: wall ns per simulated cost unit, ModeOff
	// serial, by class.
	byClass := map[string][]float64{}
	for _, o := range t.ops {
		if o.read && o.offCost > 0 {
			byClass[o.class] = append(byClass[o.class], float64(o.runOff)/o.offCost)
		}
	}
	lo, hi := 0.0, 0.0
	for _, xs := range byClass {
		v := median(xs)
		nsPerUnit = append(nsPerUnit, v)
		if lo == 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	set("storage.cost_ns_per_unit", median(nsPerUnit))
	set("storage.cost_ns_per_unit_spread", ratio(hi, lo))

	// obs: the same statement with and without progress tracking.
	sess := t.classMedians(func(o tracedOp) time.Duration { return o.session })
	noProg := t.classMedians(func(o tracedOp) time.Duration { return o.noProgress })
	var prog []float64
	for c, s := range sess {
		prog = append(prog, ratio(s, noProg[c]))
	}
	if len(prog) > 0 {
		set("obs.progress_overhead_frac", geoMean(prog)-1)
	}

	// Tracing overhead: traced against untraced class medians of the
	// same request. Shares: where a traced request's time goes.
	var over []float64
	for c, traced := range t.classMedians(func(o tracedOp) time.Duration { return o.server }) {
		over = append(over, ratio(traced/1e3, median(t.r.total.latMs[c])))
	}
	if len(over) > 0 {
		set("trace.overhead_frac", geoMean(over)-1)
	}
	// The operator tree runs the ModeOff plan, which re-optimization
	// beats by up to 15 %, so both shares are of a request that executes
	// that plan: everything around RunPlan, plus RunPlan in ModeOff.
	whole, tree, front := 0.0, 0.0, 0.0
	for _, o := range t.ops {
		if o.read {
			around := o.server - o.runFull // HTTP, JSON, session glue, parse, planning, admission
			whole += float64(around + o.runOff)
			tree += float64(o.tree)
			front += float64(around + o.scia + o.allocate) // and the steps RunPlan starts with
		}
	}
	set("trace.exec_share", ratio(tree, whole))
	set("trace.frontend_share", ratio(front, whole))

	// exec: operator self times of the ModeOff trees; collectors from
	// the trees that carry them.
	st := t.offSt
	var sum time.Duration
	for _, d := range st.self {
		sum += d
	}
	for _, k := range []string{"scan", "filter", "hashjoin", "indexjoin", "agg", "sort", "project"} {
		set("exec."+k+"_self_frac", ratio(float64(st.self[k]), float64(sum)))
	}
	set("exec.hashjoin_build_ns_per_tuple", ratio(float64(st.buildNs), float64(st.buildN)))
	set("exec.hashjoin_probe_ns_per_tuple", ratio(float64(st.probeNs), float64(st.probeN)))
	set("exec.agg_ns_per_tuple", ratio(float64(st.self["agg"]), float64(st.inN["agg"])))
	set("exec.sort_ns_per_tuple", ratio(float64(st.self["sort"]), float64(st.inN["sort"])))
	set("exec.collector_ns_per_tuple", ratio(float64(t.colSt.self["collector"]), float64(t.colSt.inN["collector"])))
	set("exec.spill_bytes_per_op", ratio(st.spill, reads))
}

// planning is the on-path planning step: the cache lookup when the
// server answered from the cache, the optimizer otherwise.
func (o tracedOp) planning() time.Duration {
	if o.hit {
		return o.get
	}
	return o.optimize
}

// Micro-timing sizes: enough iterations to rise above timer
// granularity, few enough to stay within a second in total.
const (
	microReps   = 3
	microTuples = 2000
	pinLoops    = 100_000
)

// micro takes the layer micro-timings against the workload's own data.
func (t *tracer) micro(m map[string]metric) error {
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	env := t.r.eng.env
	li, err := env.Cat.Table("lineitem")
	if err != nil {
		return err
	}
	rd := env.Cat.BeginRead()
	defer rd.End()
	snap := rd.Snapshot()

	// storage: snapshot scan of lineitem (pin, visibility, decode).
	var sample []types.Tuple
	var scanNs []float64
	for i := 0; i < microReps; i++ {
		n := 0
		t0 := time.Now()
		s := li.Heap.Scan().WithSnapshot(snap)
		for s.Next() {
			if i == 0 && n < microTuples {
				sample = append(sample, s.Tuple().Clone())
			}
			n++
		}
		d := time.Since(t0)
		if err := s.Err(); err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("lineitem is empty")
		}
		scanNs = append(scanNs, float64(d)/float64(n))
	}
	set("storage.scan_ns_per_tuple", median(scanNs))

	// storage: pin+unpin of a cached page.
	id, _, err := env.Pool.PinNew()
	if err != nil {
		return err
	}
	env.Pool.Unpin(id)
	t0 := time.Now()
	for i := 0; i < pinLoops; i++ {
		if _, err := env.Pool.Pin(id); err != nil {
			return err
		}
		env.Pool.Unpin(id)
	}
	set("storage.pin_unpin_ns", float64(time.Since(t0))/pinLoops)
	if err := env.Pool.Evict(id); err != nil {
		return err
	}
	env.Pool.Disk().Free(id)

	// types: encode and decode lineitem rows.
	encoded := make([][]byte, len(sample))
	t0 = time.Now()
	for i, tup := range sample {
		encoded[i] = types.EncodeTuple(nil, tup)
	}
	set("types.encode_ns_per_tuple", float64(time.Since(t0))/float64(len(sample)))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for _, b := range encoded {
		if _, _, err := types.DecodeTuple(b); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	set("types.decode_ns_per_tuple", float64(d)/float64(len(encoded)))
	set("types.decode_allocs_per_tuple", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(encoded)))

	// storage: versioned inserts, where the workload writes. A scratch
	// stamped heap keeps the base tables as the workload left them.
	if t.r.wl.Writes {
		scratch := storage.NewStampedHeapFile(env.Pool)
		tx := env.Cat.Txns().Begin()
		t0 = time.Now()
		for _, tup := range sample {
			if _, err := tx.InsertTuple(scratch, tup); err != nil {
				tx.Abort()
				return err
			}
		}
		set("storage.insert_ns_per_tuple", float64(time.Since(t0))/float64(len(sample)))
		if err := tx.Abort(); err != nil {
			return err
		}
	}

	// exchange: one gather over two partitioned scan workers, beside
	// storage.scan_ns_per_tuple — where the workload runs in parallel.
	if deg := t.r.wl.Degree; deg > 1 {
		var gatherNs []float64
		for i := 0; i < microReps; i++ {
			scan := &plan.Scan{Table: li, Binding: li.Name, Out: li.Schema}
			ctx := &exec.Ctx{Context: context.Background(), Pool: env.Pool, Meter: env.Meter, Snap: snap}
			op, err := exec.Build(exchange.Parallelize(scan, deg), ctx)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := op.Open(); err != nil {
				op.Close()
				return err
			}
			n, err := exec.Drain(op)
			op.Close()
			if err != nil || n == 0 {
				return fmt.Errorf("gather drained %d tuples: %v", n, err)
			}
			gatherNs = append(gatherNs, float64(time.Since(t0))/float64(n))
		}
		set("exchange.gather_ns_per_tuple", median(gatherNs))
	}
	return nil
}
