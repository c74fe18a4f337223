package exec

import (
	"math"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/types"

	"repro/internal/histogram"
)

// defaultReservoirSize is one database page worth of sampled values — the
// paper allocates exactly one page to each histogram's reservoir (§3.1).
const defaultReservoirSize = 1024

// CollectorState is the mergeable accumulator behind a statistics
// collector: cardinality and size counters, per-column min/max,
// reservoir samples, and distinct-count sketches. In a parallel region
// each worker feeds its own state, and the gather point merges them into
// one — counts add, extrema compare, reservoirs merge weighted, FM
// sketches union — so the merged Observed report is equivalent to a
// single collector over the whole stream, exactly what SCIA placement
// and the checkpoint arithmetic assume. Histograms are not merged
// directly: they are built from the merged reservoir, as in the serial
// path.
type CollectorState struct {
	ID   int
	Spec plan.CollectorSpec

	Rows  float64
	Bytes float64
	// Res, Mins and Maxs are parallel to Spec.HistCols, Uniq to
	// Spec.UniqueCols: everything a tuple needs is resolved once, here,
	// and Observe walks slices. The states of one collector share a Spec,
	// so Merge pairs them by position. A NULL in Mins or Maxs means no
	// non-NULL value was seen.
	Res  []*sample.Reservoir
	Uniq []*sketch.HybridDistinct
	Mins []types.Value
	Maxs []types.Value
}

// NewCollectorState returns an empty state for the collector node. A
// partition index differentiates the sampling seeds of parallel workers
// so their reservoirs are independent draws.
func NewCollectorState(n *plan.Collector, partition int) *CollectorState {
	spec := n.Spec
	size := spec.ReservoirSize
	if size <= 0 {
		size = defaultReservoirSize
	}
	s := &CollectorState{
		ID:   n.ID,
		Spec: spec,
		Res:  make([]*sample.Reservoir, len(spec.HistCols)),
		Uniq: make([]*sketch.HybridDistinct, len(spec.UniqueCols)),
		Mins: make([]types.Value, len(spec.HistCols)),
		Maxs: make([]types.Value, len(spec.HistCols)),
	}
	// The node's row estimate sizes each reservoir (sample.NewReservoir):
	// a statement that expects 25 rows allocates room for 25 values, not
	// a page. Inside a parallel region it is the whole stream's estimate,
	// so a partition's reservoir may start with room for more than its
	// share.
	expect := int(min(math.Ceil(n.Est().Rows), float64(size)))
	for i, col := range spec.HistCols {
		s.Res[i] = sample.NewReservoir(size, expect, spec.Seed+int64(col)+int64(partition)*7919)
	}
	for i := range spec.UniqueCols {
		// One page worth of exact hashes before degrading to FM.
		s.Uniq[i] = sketch.NewHybridDistinct(1024, 64)
	}
	return s
}

// Observe folds one tuple into the state.
func (s *CollectorState) Observe(t types.Tuple) {
	s.Rows++
	s.Bytes += float64(types.EncodedSize(t))
	for i, col := range s.Spec.HistCols {
		v := t[col]
		if v.IsNull() {
			continue
		}
		s.Res[i].Add(v)
		s.widen(i, v)
	}
	for i, set := range s.Spec.UniqueCols {
		// Combine the set's values into one hash: distinct counting
		// over attribute combinations only needs hash identity.
		var h uint64 = 1469598103934665603
		for _, col := range set {
			h = h*1099511628211 ^ t[col].Hash()
		}
		s.Uniq[i].AddHash(h)
	}
}

// widen stretches histogram column i's extrema to cover the non-NULL v.
func (s *CollectorState) widen(i int, v types.Value) {
	if cur := s.Mins[i]; cur.IsNull() || v.Compare(cur) < 0 {
		s.Mins[i] = v
	}
	if cur := s.Maxs[i]; cur.IsNull() || v.Compare(cur) > 0 {
		s.Maxs[i] = v
	}
}

// Merge folds another partition's state of the same collector into s.
// The other state is consumed. Merging is associative; gather points
// merge worker states in worker-index order so results are deterministic.
func (s *CollectorState) Merge(o *CollectorState) {
	if o == nil {
		return
	}
	s.Rows += o.Rows
	s.Bytes += o.Bytes
	for i, r := range o.Res {
		s.Res[i].Merge(r)
		if mn := o.Mins[i]; !mn.IsNull() {
			s.widen(i, mn)
			s.widen(i, o.Maxs[i])
		}
	}
	for i, u := range o.Uniq {
		s.Uniq[i].Merge(u)
	}
}

// Observed builds the collector's report from the state: histograms from
// the (possibly merged) reservoirs, distinct estimates clamped to the
// observed cardinality, extrema for the columns that held a value.
func (s *CollectorState) Observed() *plan.Observed {
	o := &plan.Observed{
		CollectorID: s.ID,
		Rows:        s.Rows,
		Bytes:       s.Bytes,
		Hists:       make(map[int]*histogram.Histogram, len(s.Res)),
		Uniques:     make(map[string]float64, len(s.Uniq)),
		Mins:        make(map[int]types.Value, len(s.Mins)),
		Maxs:        make(map[int]types.Value, len(s.Maxs)),
	}
	for i, col := range s.Spec.HistCols {
		r := s.Res[i]
		o.Hists[col] = histogram.Build(s.Spec.HistFamily, r.Sample(), 20, float64(r.Seen()))
		if !s.Mins[i].IsNull() {
			o.Mins[col], o.Maxs[col] = s.Mins[i], s.Maxs[i]
		}
	}
	for i, set := range s.Spec.UniqueCols {
		est := s.Uniq[i].Estimate()
		if est > s.Rows {
			est = s.Rows
		}
		o.Uniques[plan.UniqueKey(set)] = est
	}
	return o
}

// Collector is the statistics-collector operator (§2.2, §3.1): a
// streamed operator that takes a stream of tuples as input and produces
// exactly the same stream as output, examining each tuple on the way
// through. Cardinality, total bytes, and per-column min/max are running
// values; histograms come from a reservoir sample built when the input is
// exhausted; distinct counts use Flajolet–Martin sketches.
//
// When the input is exhausted the collector sends its Observed report to
// the context's StatsSink — the analogue of Paradise's statistics message
// back to the scheduler/dispatcher. Inside a parallel region (the
// context's StateSink is set) it instead hands its raw state to the
// gather point for merging.
type Collector struct {
	node *plan.Collector
	in   Operator
	ctx  *Ctx

	st     *CollectorState
	est    float64 // optimizer's row estimate at this point, for tracing
	sent   bool
	opened bool
}

// NewCollector wraps in with a statistics collector.
func NewCollector(n *plan.Collector, in Operator, ctx *Ctx) *Collector {
	return &Collector{node: n, in: in, ctx: ctx}
}

// Schema implements Operator.
func (c *Collector) Schema() *types.Schema { return c.node.Schema() }

// Open implements Operator. It is idempotent (see HashJoin.Open).
func (c *Collector) Open() error {
	if c.opened {
		return nil
	}
	c.opened = true
	c.est = c.node.Est().Rows
	c.st = NewCollectorState(c.node, c.ctx.Part)
	return c.in.Open()
}

// Next implements Operator.
func (c *Collector) Next() (types.Tuple, error) {
	t, err := c.in.Next()
	if err != nil {
		return nil, err
	}
	if t == nil {
		c.report()
		return nil, nil
	}
	// The examination cost is the collector's entire overhead: no I/O
	// is performed, matching §2.2. Cardinality/size/min-max-only
	// collectors are free, per the paper's assumption that measuring
	// those is negligible; only histogram and distinct-count work is
	// charged (and budgeted by the SCIA's μ).
	if !c.node.Spec.Empty() {
		c.ctx.Meter.ChargeStatTuples(1)
	}
	c.st.Observe(t)
	return t, nil
}

// report delivers the collector's result once: the raw state to a
// parallel gather point when one is listening, the finished Observed
// report to the dispatcher otherwise.
func (c *Collector) report() {
	if c.sent {
		return
	}
	c.sent = true
	if c.ctx.StateSink != nil {
		c.ctx.StateSink(c.st)
		return
	}
	o := c.st.Observed()
	if c.ctx.Trace.Enabled() {
		ratio := 0.0
		if c.est > 0 {
			ratio = c.st.Rows / c.est
		}
		c.ctx.Trace.Emit("collector", "statistics collector report",
			"collector_id", c.node.ID,
			"est_rows", c.est,
			"actual_rows", c.st.Rows,
			"bytes", c.st.Bytes,
			"ratio", ratio,
		)
	}
	if c.ctx.StatsSink != nil {
		c.ctx.StatsSink(o)
	}
}

// Close implements Operator.
func (c *Collector) Close() error { return c.in.Close() }
