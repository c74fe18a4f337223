package main

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// opNode wraps one operator of the benchmark's own operator tree and
// records the inclusive time spent inside its Open, Next and Close, so
// per-operator self time is measured without touching internal/exec.
// Children run only inside their parent's calls, so
// self = busy − Σ children's busy.
type opNode struct {
	kind   string
	inner  exec.Operator
	kids   []*opNode
	parent *opNode

	rec    *recorder
	opID   int
	above  int // span id the root hangs under
	spanID int
	closed bool

	open, next, close time.Duration
	calls             int64 // timed calls: each cost one timer pair
	// kidsInOpen is the children's raw time, and kidCallsInOpen their
	// timed calls, that fell inside this node's Open: for a hash join,
	// the build input's whole drain.
	kidsInOpen     time.Duration
	kidCallsInOpen int64
	rows           int64
	spiller        interface{ SpilledBytes() float64 } // nil for streaming operators
	spill          float64                             // peak of spiller.SpilledBytes
}

// timerPair is the calibrated cost of one time.Now/time.Since pair. A
// wrapper pays it on every call of every operator, which on a scan of
// 60 000 tuples under three parents is a quarter of the query, so busy
// times are reported net of it.
var timerPair = func() time.Duration {
	const n = 200_000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sink += time.Since(t0)
	}
	_ = sink
	return time.Since(start) / n
}()

// allCalls counts the timed calls of n and everything below it.
func (n *opNode) allCalls() int64 {
	c := n.calls
	for _, k := range n.kids {
		c += k.allCalls()
	}
	return c
}

// busy is the inclusive time inside n's calls, net of timer cost: all of
// its descendants' pairs and the half of its own that falls between its
// two clock readings.
func (n *opNode) busy() time.Duration {
	raw := n.open + n.next + n.close
	net := raw - time.Duration(n.allCalls()-n.calls)*timerPair - time.Duration(n.calls)*timerPair/2
	if net < 0 {
		return 0
	}
	return net
}

// kidsRaw sums the children's time and timed calls as the clock read
// them, without the timer correction.
func (n *opNode) kidsRaw() (time.Duration, int64) {
	var d time.Duration
	var c int64
	for _, k := range n.kids {
		d += k.open + k.next + k.close
		c += k.calls
	}
	return d, c
}

// openSelf is the node's own work inside Open, net of timer cost: half a
// pair for its own call and for each child call made from it (the other
// half of a child's pair falls inside the child's reading).
func (n *opNode) openSelf() time.Duration {
	if s := n.open - n.kidsInOpen - time.Duration(1+n.kidCallsInOpen)*timerPair/2; s > 0 {
		return s
	}
	return 0
}

func (n *opNode) kidsBusy() time.Duration {
	var d time.Duration
	for _, k := range n.kids {
		d += k.busy()
	}
	return d
}

func (n *opNode) self() time.Duration {
	if s := n.busy() - n.kidsBusy(); s > 0 {
		return s
	}
	return 0
}

// sampleSpill keeps the peak of a spilling operator's spilled bytes:
// partitions and runs are dropped as they are consumed, so the value at
// Close is usually 0.
func (n *opNode) sampleSpill() {
	if n.spiller != nil {
		if b := n.spiller.SpilledBytes(); b > n.spill {
			n.spill = b
		}
	}
}

func (n *opNode) Schema() *types.Schema { return n.inner.Schema() }

func (n *opNode) Open() error {
	if n.spanID == 0 {
		above := n.above
		if n.parent != nil {
			above = n.parent.spanID
		}
		n.spanID = n.rec.begin(n.kind, "exec", above, n.opID)
	}
	k0, c0 := n.kidsRaw()
	t0 := time.Now()
	err := n.inner.Open()
	n.open += time.Since(t0)
	n.calls++
	k1, c1 := n.kidsRaw()
	n.kidsInOpen += k1 - k0
	n.kidCallsInOpen += c1 - c0
	n.sampleSpill()
	return err
}

func (n *opNode) Next() (types.Tuple, error) {
	t0 := time.Now()
	t, err := n.inner.Next()
	n.next += time.Since(t0)
	n.calls++
	if t != nil {
		n.rows++
	}
	if n.calls%256 == 0 {
		n.sampleSpill()
	}
	return t, err
}

// Close may be called more than once (a hash join closes its build input
// at the end of Open and again when its own Close cascades); the span is
// ended on the first call.
func (n *opNode) Close() error {
	n.sampleSpill()
	t0 := time.Now()
	err := n.inner.Close()
	n.close += time.Since(t0)
	n.calls++
	if !n.closed && n.spanID != 0 {
		n.closed = true
		n.rec.end(n.spanID)
	}
	return err
}

// treeBuilder instantiates a physical plan with the exported operator
// constructors, one opNode around every node.
type treeBuilder struct {
	ctx   *exec.Ctx
	rec   *recorder
	opID  int
	above int
	nodes []*opNode
}

func (b *treeBuilder) wrap(kind string, inner exec.Operator, kids ...*opNode) *opNode {
	n := &opNode{kind: kind, inner: inner, kids: kids, rec: b.rec, opID: b.opID, above: b.above}
	n.spiller, _ = inner.(interface{ SpilledBytes() float64 })
	for _, k := range kids {
		k.parent = n
	}
	b.nodes = append(b.nodes, n)
	return n
}

func (b *treeBuilder) build(n plan.Node) (*opNode, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return b.wrap("scan", exec.NewSeqScan(x, b.ctx)), nil
	case *plan.HashJoin:
		build, err := b.build(x.Build)
		if err != nil {
			return nil, err
		}
		probe, err := b.build(x.Probe)
		if err != nil {
			return nil, err
		}
		return b.wrap("hashjoin", exec.NewHashJoin(x, build, probe, b.ctx), build, probe), nil
	case *plan.IndexJoin:
		outer, err := b.build(x.Outer)
		if err != nil {
			return nil, err
		}
		op, err := exec.NewIndexJoin(x, outer, b.ctx)
		if err != nil {
			return nil, err
		}
		return b.wrap("indexjoin", op, outer), nil
	}
	kids := n.Children()
	if len(kids) != 1 {
		return nil, fmt.Errorf("operator tree: unexpected plan node %T", n)
	}
	in, err := b.build(kids[0])
	if err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *plan.Filter:
		return b.wrap("filter", exec.NewFilter(x, in, b.ctx), in), nil
	case *plan.Collector:
		return b.wrap("collector", exec.NewCollector(x, in, b.ctx), in), nil
	case *plan.Agg:
		return b.wrap("agg", exec.NewAgg(x, in, b.ctx), in), nil
	case *plan.Sort:
		return b.wrap("sort", exec.NewSort(x, in, b.ctx), in), nil
	case *plan.Project:
		return b.wrap("project", exec.NewProject(x, in, b.ctx), in), nil
	case *plan.Limit:
		return b.wrap("limit", exec.NewLimit(x, in), in), nil
	}
	return nil, fmt.Errorf("operator tree: unexpected plan node %T", n)
}

// treeStats sums operator self time and tuple counts by operator kind
// over every tree run in the traced pass.
type treeStats struct {
	self    map[string]time.Duration
	total   time.Duration // Σ root busy: exec+storage+types time of the runs
	buildNs time.Duration // hash-join build self time, and the tuples built
	buildN  int64
	probeNs time.Duration
	probeN  int64
	inN     map[string]int64 // tuples consumed, per kind
	spill   float64
}

func newTreeStats() *treeStats {
	return &treeStats{self: map[string]time.Duration{}, inN: map[string]int64{}}
}

// runTree executes root under a fresh span-wrapped operator tree, folds
// its timings into st, and returns the rows and the root's busy time.
func runTree(root plan.Node, ctx *exec.Ctx, rec *recorder, opID, above int, st *treeStats) ([]types.Tuple, time.Duration, error) {
	b := &treeBuilder{ctx: ctx, rec: rec, opID: opID, above: above}
	top, err := b.build(root)
	if err != nil {
		return nil, 0, err
	}
	rows, err := exec.Collect(top)
	if err != nil {
		return nil, 0, err
	}
	for _, n := range b.nodes {
		if n.spanID != 0 { // a probe input is never opened when the build side is empty
			rec.setBusy(n.spanID, n.busy(), n.rows)
		}
		st.self[n.kind] += n.self()
		st.spill += n.spill
		for _, k := range n.kids {
			st.inN[n.kind] += k.rows
		}
		if n.kind == "hashjoin" {
			build := n.openSelf()
			st.buildNs += build
			st.buildN += n.kids[0].rows
			if probe := n.self() - build; probe > 0 {
				st.probeNs += probe
			}
			st.probeN += n.kids[1].rows
		}
	}
	st.total += top.busy()
	return rows, top.busy(), nil
}
