package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
)

// Progress is one query's live execution state: per-operator atomic
// counters published by the executor as tuples flow, plus the
// query-level aggregates the continuous suboptimality score is derived
// from. It is written lock-free from the query's own goroutines
// (operators flush local row counts every observeFlushRows tuples, on
// the same amortized cadence as Ctx.Tick) and read at any moment by
// observers — the /progress endpoint, the mqr.queries system table —
// without perturbing execution.
//
// A timed Progress is also the query's EXPLAIN ANALYZE record: its
// operators measure inclusive cost and peak memory as well (see opCost),
// and Render draws its plans. Untimed, the always-on path carries none of
// that.
//
// A nil *Progress is the disabled instance: every method is a no-op or
// returns a zero value, mirroring Trace.
type Progress struct {
	// Tag is the engine-unique query tag ("s3_q17"); Session, Tenant,
	// and SQL identify the query for system-table rows. Immutable
	// after Start.
	Tag     string
	Session int64
	Tenant  string
	SQL     string
	Started time.Time
	// FedBack marks a query that started from a plan re-planned on an
	// earlier run's observed rows. Immutable after Start.
	FedBack bool
	// Meter is the query's own meter: its cost is the cost consumed,
	// read only when someone snapshots. Immutable after Start.
	Meter *storage.CostMeter

	// timed turns on EXPLAIN ANALYZE accounting. Immutable.
	timed bool

	// preempts counts checkpoint preemptions this query survived
	// (each one re-queued it for admission).
	preempts atomic.Int64

	// estCost is the optimizer's total cost estimate for the first plan
	// (Stats.EstimatedCost); the denominator of both the progress
	// fraction and the suboptimality score.
	estCost atomicFloat

	// maxRatio is the largest rowsOut/estRows overshoot observed across
	// operators with a meaningful estimate — the live estimate-error
	// signal that moves between checkpoints.
	maxRatio atomicFloat

	// scoreFloor is the highest Eq.2 position a checkpoint recorded
	// (Improved/Estimate of its decision): once a checkpoint has
	// measured the query this far off its estimate, the reported score
	// never falls below it.
	scoreFloor atomicFloat

	checkpoints atomic.Int64
	switches    atomic.Int64
	done        atomic.Bool

	// finishedNS freezes the query's wall time at Finish.
	finishedNS atomic.Int64

	// mu guards the operator registry. StartPlan appends under the
	// query's own goroutine; snapshots copy the slice header under the
	// lock and then read only atomics. roots are the registered plans in
	// execution order, kept only when timed: only Render reads them.
	mu    sync.Mutex
	ops   map[plan.Node]*OpProgress
	list  []*OpProgress
	roots []plan.Node
}

// OpProgress is one operator's live counters. The executor's progress
// wrapper owns the writes; everything mutable is atomic so snapshots
// need no coordination with the running query.
type OpProgress struct {
	// ID is the operator's position in plan pre-order; Depth indents the
	// rendering. Label/Detail/EstRows/EstCost are captured once at plan
	// registration (plan nodes themselves are mutated by checkpoints, so
	// snapshots must not read them live).
	ID      int
	Depth   int
	Label   string
	Detail  string
	EstRows float64
	EstCost float64

	rows    atomic.Int64
	spill   atomicFloat
	workers atomic.Int32 // concurrent openers
	state   atomic.Int32 // 0 pending, 1 open, 2 done
	act     *opCost      // nil unless the query is timed
}

// Operator lifecycle states as rendered in snapshots.
const (
	opPending int32 = iota
	opOpen
	opDone
)

// AddRows publishes n more output rows.
func (o *OpProgress) AddRows(n int64) { o.rows.Add(n) }

// Rows returns the rows emitted so far.
func (o *OpProgress) Rows() int64 { return o.rows.Load() }

// casMax raises f to v if v is larger (parallel workers publish
// concurrently, so a plain check-then-set could go backwards).
func casMax(f *atomicFloat, v float64) {
	for {
		old := f.Load()
		if v <= old || f.bits.CompareAndSwap(math.Float64bits(old), math.Float64bits(v)) {
			return
		}
	}
}

// SetSpillBytes publishes the operator's spill high-water mark (spill
// partitions are dropped as they are consumed, so the live sum can
// shrink; the high-water mark is the meaningful figure).
func (o *OpProgress) SetSpillBytes(b float64) { casMax(&o.spill, b) }

// MarkOpen flags the operator as executing. Parallel clones of one plan
// node share an entry; the count of concurrent openers keeps a worker's
// Close from marking the node done while siblings still run.
func (o *OpProgress) MarkOpen() {
	o.workers.Add(1)
	o.state.CompareAndSwap(opPending, opOpen)
}

// MarkDone flags the operator finished once every concurrent opener has
// closed.
func (o *OpProgress) MarkDone() {
	if o.workers.Add(-1) <= 0 {
		o.state.Store(opDone)
	}
}

func (o *OpProgress) stateName() string {
	return [...]string{"pending", "open", "done"}[o.state.Load()]
}

// NewProgress returns live progress state for one query; timed also
// measures what EXPLAIN ANALYZE renders.
func NewProgress(tag string, session int64, sql string, timed bool) *Progress {
	return &Progress{
		Tag:     tag,
		Session: session,
		SQL:     sql,
		Started: time.Now(),
		timed:   timed,
		ops:     map[plan.Node]*OpProgress{},
	}
}

// Enabled reports whether progress is being recorded. Safe on nil.
func (p *Progress) Enabled() bool { return p != nil }

// Timed reports whether operators measure cost and memory for EXPLAIN
// ANALYZE. Safe on nil.
func (p *Progress) Timed() bool { return p != nil && p.timed }

// OpLayout is what a plan node shows of itself: its Label and its
// Describe, both structural. A plan's layout lists its nodes' in
// pre-order.
type OpLayout struct {
	Label, Detail string
}

// Layout returns the layout of the plan under root.
func Layout(root plan.Node) []OpLayout {
	var out []OpLayout
	plan.Walk(root, func(n plan.Node) { out = append(out, layoutOf(n)) })
	return out
}

func layoutOf(n plan.Node) OpLayout { return OpLayout{n.Label(), n.Describe()} }

// StartPlan registers a plan's operators (pre-order), capturing labels
// and estimates while the plan is quiescent. layout, when non-nil, is
// the plan's (Layout): a plan-cache hit passes its entry's instead of
// describing every node again. The dispatcher calls StartPlan for the
// initial plan and again after every switch; operators of earlier plans
// keep their entries, so a snapshot shows the whole history. Safe on
// nil.
func (p *Progress) StartPlan(root plan.Node, layout []OpLayout) {
	if p == nil || root == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.timed {
		p.roots = append(p.roots, root)
	}
	pos := 0
	p.walk(root, 0, layout, &pos)
}

// walk registers n's subtree; *pos is n's position in the plan's
// pre-order, the index of its layout.
func (p *Progress) walk(n plan.Node, depth int, layout []OpLayout, pos *int) {
	if n == nil {
		return
	}
	if _, ok := p.ops[n]; !ok {
		if layout != nil {
			p.add(n, depth, layout[*pos])
		} else {
			p.add(n, depth, layoutOf(n))
		}
	}
	*pos++
	for _, c := range n.Children() {
		p.walk(c, depth+1, layout, pos)
	}
}

// add registers a node's record, capturing its estimates. Caller holds
// mu.
func (p *Progress) add(n plan.Node, depth int, l OpLayout) *OpProgress {
	o := &OpProgress{ID: len(p.list), Depth: depth, Label: l.Label, Detail: l.Detail}
	if e := n.Est(); e != nil {
		o.EstRows = e.Rows
		o.EstCost = e.Cost
	}
	if p.timed {
		o.act = &opCost{}
	}
	p.ops[n] = o
	p.list = append(p.list, o)
	return o
}

// Op returns the record for a plan node, creating an orphan entry if the
// node was never registered (defensive: exchange workers build pipelines
// from registered nodes, so this is rare). Safe on nil receivers only
// through the executor's nil check.
func (p *Progress) Op(n plan.Node) *OpProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	if o := p.ops[n]; o != nil {
		return o
	}
	return p.add(n, 0, layoutOf(n))
}

// SetEstimate records the optimizer's total cost estimate (first plan
// only, matching Stats.EstimatedCost). Safe on nil.
func (p *Progress) SetEstimate(cost float64) {
	if p == nil {
		return
	}
	if p.estCost.Load() == 0 {
		p.estCost.Set(cost)
	}
}

// NoteRatio folds one operator's estimate error into the query-level
// overshoot. Called from the executor's flush path; cheap (two atomic
// loads and a CAS in the rare growing case).
func (p *Progress) NoteRatio(o *OpProgress) {
	if p == nil || o == nil || o.EstRows < 1 {
		return
	}
	casMax(&p.maxRatio, float64(o.Rows())/o.EstRows)
}

// RecordDecision notes one checkpoint's decision: where Eq.2 measured
// the query relative to its plan's estimate (pos) and whether it
// switched plans. Safe on nil.
func (p *Progress) RecordDecision(pos float64, switched bool) {
	if p == nil {
		return
	}
	p.checkpoints.Add(1)
	casMax(&p.scoreFloor, pos)
	if switched {
		p.switches.Add(1)
	}
}

// ScoreFloor returns the highest Eq.2 position a checkpoint has
// recorded. Safe on nil.
func (p *Progress) ScoreFloor() float64 {
	if p == nil {
		return 0
	}
	return p.scoreFloor.Load()
}

// RecordPreempt notes one checkpoint preemption. Safe on nil.
func (p *Progress) RecordPreempt() {
	if p == nil {
		return
	}
	p.preempts.Add(1)
}

// Preempts returns the checkpoint preemptions recorded so far. Safe on
// nil.
func (p *Progress) Preempts() int64 {
	if p == nil {
		return 0
	}
	return p.preempts.Load()
}

// Finish marks the query complete, freezing its elapsed time. Safe on
// nil.
func (p *Progress) Finish() {
	if p == nil || p.done.Load() {
		return
	}
	p.finishedNS.Store(time.Since(p.Started).Nanoseconds())
	p.done.Store(true)
}

// Cost returns the simulated cost the query has consumed so far.
func (p *Progress) Cost() float64 {
	if p == nil || p.Meter == nil {
		return 0
	}
	return p.Meter.Cost()
}

// SpillBytes sums the operators' current spill footprints. Safe on nil.
func (p *Progress) SpillBytes() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	list := p.list
	p.mu.Unlock()
	var b float64
	for _, o := range list {
		b += o.spill.Load()
	}
	return b
}

// Switches returns the plan switches recorded so far. Safe on nil.
func (p *Progress) Switches() int64 {
	if p == nil {
		return 0
	}
	return p.switches.Load()
}

// Score is the continuous suboptimality estimate, the PLANSIEVE-style
// signal derived between checkpoints:
//
//	S = (C + max(E-C, 0)·ρ) / E
//
// where C is cost consumed, E the original total estimate, and ρ the
// largest live rows/estimate overshoot across operators. On a query
// tracking its estimates S stays ≈ 1; as an operator overproduces
// mid-segment, the unconsumed remainder is inflated by ρ and S rises
// before any checkpoint fires. Checkpoints clamp S from below at their
// measured Eq.2 position (tCurImproved/T_orig). Safe on nil (returns 0).
func (p *Progress) Score() float64 {
	if p == nil {
		return 0
	}
	e := p.estCost.Load()
	if e <= 0 {
		return p.scoreFloor.Load()
	}
	c := p.Cost()
	rho := p.maxRatio.Load()
	if rho < 1 {
		rho = 1
	}
	rem := e - c
	if rem < 0 {
		rem = 0
	}
	s := (c + rem*rho) / e
	if floor := p.scoreFloor.Load(); floor > s {
		s = floor
	}
	return s
}

// Fraction estimates how far along the query is: cost consumed over the
// larger of the estimate and the consumption. Monotone non-decreasing
// (cost only grows), reaching 1 exactly when the query finishes.
func (p *Progress) Fraction() float64 {
	if p == nil {
		return 0
	}
	if p.done.Load() {
		return 1
	}
	c := p.Cost()
	e := p.estCost.Load()
	if c <= 0 {
		return 0
	}
	if e < c {
		e = c
	}
	return c / e
}

// OpSnapshot is one operator row of a progress snapshot.
type OpSnapshot struct {
	ID         int     `json:"id"`
	Depth      int     `json:"depth"`
	Label      string  `json:"label"`
	Detail     string  `json:"detail,omitempty"`
	State      string  `json:"state"`
	EstRows    float64 `json:"est_rows"`
	Rows       int64   `json:"rows"`
	SpillBytes float64 `json:"spill_bytes,omitempty"`
}

// ProgressSnapshot is a point-in-time copy of a query's live state.
type ProgressSnapshot struct {
	Query       string       `json:"query"`
	Session     int64        `json:"session"`
	Tenant      string       `json:"tenant,omitempty"`
	SQL         string       `json:"sql"`
	State       string       `json:"state"`
	ElapsedMS   int64        `json:"elapsed_ms"`
	EstCost     float64      `json:"est_cost"`
	Cost        float64      `json:"cost"`
	Fraction    float64      `json:"fraction"`
	Score       float64      `json:"score"`
	Checkpoints int64        `json:"checkpoints"`
	Switches    int64        `json:"switches"`
	Preempts    int64        `json:"preempts,omitempty"`
	FedBack     bool         `json:"fed_back,omitempty"`
	SpillBytes  float64      `json:"spill_bytes"`
	Operators   []OpSnapshot `json:"operators,omitempty"`
}

// Snapshot copies the query's current state. withOps includes the
// per-operator rows (the mqr.operators table and /progress endpoint
// want them; the /status summary does not). Safe on nil.
func (p *Progress) Snapshot(withOps bool) ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	state := "running"
	elapsed := time.Since(p.Started)
	if p.done.Load() {
		state = "done"
		elapsed = time.Duration(p.finishedNS.Load())
	}
	s := ProgressSnapshot{
		Query:       p.Tag,
		Session:     p.Session,
		Tenant:      p.Tenant,
		SQL:         p.SQL,
		State:       state,
		ElapsedMS:   elapsed.Milliseconds(),
		EstCost:     p.estCost.Load(),
		Cost:        p.Cost(),
		Fraction:    p.Fraction(),
		Score:       p.Score(),
		Checkpoints: p.checkpoints.Load(),
		Switches:    p.switches.Load(),
		Preempts:    p.preempts.Load(),
		FedBack:     p.FedBack,
		SpillBytes:  p.SpillBytes(),
	}
	if !withOps {
		return s
	}
	p.mu.Lock()
	list := append([]*OpProgress(nil), p.list...)
	p.mu.Unlock()
	s.Operators = make([]OpSnapshot, len(list))
	for i, o := range list {
		s.Operators[i] = OpSnapshot{
			ID:         o.ID,
			Depth:      o.Depth,
			Label:      o.Label,
			Detail:     o.Detail,
			State:      o.stateName(),
			EstRows:    o.EstRows,
			Rows:       o.Rows(),
			SpillBytes: o.spill.Load(),
		}
	}
	return s
}

// ProgressRegistry tracks every in-flight query's Progress plus a small
// ring of recently finished ones, so the mqr.queries table and the
// /progress endpoint can list both. The registry is engine-wide; the
// write path touches it twice per query (Start, Finish).
type ProgressRegistry struct {
	mu      sync.Mutex
	running map[string]*Progress
	recent  []*Progress // ring, oldest first
	rpos    int
}

// RecentProgressCap bounds the finished-query ring.
const RecentProgressCap = 32

// NewProgressRegistry returns an empty registry.
func NewProgressRegistry() *ProgressRegistry {
	return &ProgressRegistry{running: map[string]*Progress{}}
}

// Start registers a query's Progress as running.
func (r *ProgressRegistry) Start(p *Progress) {
	r.mu.Lock()
	r.running[p.Tag] = p
	r.mu.Unlock()
}

// Finish moves a query from running to the recent ring.
func (r *ProgressRegistry) Finish(p *Progress) {
	if p == nil {
		return
	}
	p.Finish()
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.running, p.Tag)
	if len(r.recent) < RecentProgressCap {
		r.recent = append(r.recent, p)
		return
	}
	r.recent[r.rpos] = p
	r.rpos = (r.rpos + 1) % RecentProgressCap
}

// Get returns the Progress for a tag (running first, then recent), or
// nil.
func (r *ProgressRegistry) Get(tag string) *Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.running[tag]; p != nil {
		return p
	}
	for _, p := range r.recent {
		if p != nil && p.Tag == tag {
			return p
		}
	}
	return nil
}

// Running returns the in-flight queries, ordered by tag registration
// (map order is not stable; callers sort as needed).
func (r *ProgressRegistry) Running() []*Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Progress, 0, len(r.running))
	for _, p := range r.running {
		out = append(out, p)
	}
	return out
}

// Recent returns the finished-query ring, oldest first.
func (r *ProgressRegistry) Recent() []*Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Progress, 0, len(r.recent))
	out = append(out, r.recent[r.rpos:]...)
	out = append(out, r.recent[:r.rpos]...)
	return out
}

// MaxScore returns the largest live suboptimality score across running
// queries — the reopt_live_suboptimality gauge.
func (r *ProgressRegistry) MaxScore() float64 {
	var max float64
	for _, p := range r.Running() {
		if s := p.Score(); s > max {
			max = s
		}
	}
	return max
}

// NumRunning counts in-flight queries.
func (r *ProgressRegistry) NumRunning() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.running)
}
