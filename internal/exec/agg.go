package exec

import (
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// aggStateWidth is the number of values each aggregate contributes to an
// encoded group state: sum, count, min, max.
const aggStateWidth = 4

// aggMode selects what an Agg consumes and produces. The encoded group
// state (key values then per-aggregate sum/count/min/max — the same
// representation the spill path already uses) doubles as the wire format
// between a parallel region's partial aggregates and the serial final
// merge at the gather point.
type aggMode uint8

const (
	// aggComplete consumes raw input and produces finished rows.
	aggComplete aggMode = iota
	// aggPartial consumes raw input and produces encoded group states.
	aggPartial
	// aggFinal consumes encoded group states and produces finished rows.
	aggFinal
)

// Agg is a blocking hash aggregation operator. Group states (sum, count,
// min, max per aggregate) are mergeable, so when the group table exceeds
// the node's memory grant the operator spills encoded partial states to
// hash partitions and merges them partition by partition — one extra
// write+read pass, mirroring the hash join's degradation.
type Agg struct {
	node *plan.Agg
	in   Operator
	ctx  *Ctx
	mode aggMode

	grant float64
	// keyCols are the input ordinals of the group key: the node's
	// GroupCols, or in final mode the state tuples' leading columns.
	keyCols []int
	// The group table. Group g — entry g of index, so numbered in
	// first-seen order — owns keys[g*nk:][:nk], accs[g*3*na:][:3*na]
	// (sums, then mins, then maxs) and counts[g*na:][:na], for nk key
	// columns and na aggregates: three slabs that grow by doubling, so a
	// new group allocates nothing of its own.
	index   hashIndex
	keys    []types.Value
	accs    []types.Value
	counts  []int64
	size    float64
	peakMem float64 // high-water group-table memory, for EXPLAIN ANALYZE

	spilled bool
	parts   []*storage.HeapFile

	mem     types.Arena // what output rows and emitted states are carved from
	scratch types.Tuple // the state being written to a spill partition
	out     []types.Tuple
	outPos  int
	opened  bool
	closed  bool
}

// group is a view of one group's pieces of the slabs.
type group struct {
	key              types.Tuple
	sums, mins, maxs []types.Value
	counts           []int64
}

// group returns the view of group g.
func (a *Agg) group(g int) group {
	nk, na := len(a.keyCols), len(a.node.Aggs)
	acc := a.accs[g*3*na : (g+1)*3*na]
	return group{
		key:    types.Tuple(a.keys[g*nk : (g+1)*nk]),
		sums:   acc[:na],
		mins:   acc[na : 2*na],
		maxs:   acc[2*na:],
		counts: a.counts[g*na : (g+1)*na],
	}
}

// lookup returns the number of the group whose key is t's values at
// cols, adding an empty group when t is the first of its key. Stored
// keys are compared against the tuple's key columns in place.
func (a *Agg) lookup(t types.Tuple, cols []int) (g int, added bool) {
	h := HashKeys(t, cols)
	nk := len(cols)
	for e := a.index.first(h); e >= 0; e = a.index.after(e, h) {
		if keyEqual(a.keys[int(e)*nk:][:nk], t, cols) {
			return int(e), false
		}
	}
	g = a.index.insert(h)
	a.keys = room(a.keys, nk)
	for _, c := range cols {
		a.keys = append(a.keys, t[c])
	}
	na := len(a.node.Aggs)
	a.accs = extend(a.accs, 3*na)
	a.counts = extend(a.counts, na)
	return g, true
}

// resetGroups empties the group table, keeping its slabs for the next
// fill and letting go of the values they held.
func (a *Agg) resetGroups() {
	a.index.reset()
	clear(a.keys)
	clear(a.accs)
	a.keys, a.accs, a.counts = a.keys[:0], a.accs[:0], a.counts[:0]
}

// NewAgg builds a hash aggregation operator.
func NewAgg(n *plan.Agg, in Operator, ctx *Ctx) *Agg {
	return &Agg{node: n, in: in, ctx: ctx}
}

// NewPartialAgg builds an aggregation worker for a parallel region: it
// consumes raw input tuples and emits encoded group states for a
// downstream NewFinalAgg to merge.
func NewPartialAgg(n *plan.Agg, in Operator, ctx *Ctx) *Agg {
	return &Agg{node: n, in: in, ctx: ctx, mode: aggPartial}
}

// NewFinalAgg builds the serial merge stage of a parallel aggregation:
// it consumes encoded group states and produces finished rows.
func NewFinalAgg(n *plan.Agg, in Operator, ctx *Ctx) *Agg {
	return &Agg{node: n, in: in, ctx: ctx, mode: aggFinal}
}

// Schema implements Operator.
func (a *Agg) Schema() *types.Schema { return a.node.Out }

// Open implements Operator. Aggregation is blocking: the entire input is
// consumed here.
func (a *Agg) Open() error {
	a.grant = a.node.Est().Grant * a.ctx.grantShare()
	a.keyCols = a.node.GroupCols
	if a.mode == aggFinal {
		a.keyCols = leadingCols(len(a.node.GroupCols))
	}
	// absorb copies the key and argument values it keeps: the input is
	// lent.
	Lend(a.in)
	if err := a.in.Open(); err != nil {
		return err
	}
	for {
		if err := a.ctx.Tick(); err != nil {
			return err
		}
		if err := faultinject.Hit("exec.agg.absorb"); err != nil {
			return err
		}
		t, err := a.in.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		a.ctx.Meter.ChargeTuples(1)
		if err := a.absorb(t); err != nil {
			return err
		}
	}
	if err := a.in.Close(); err != nil {
		return err
	}
	var err error
	switch {
	case a.mode == aggPartial:
		err = a.emitStates()
	case a.spilled:
		if err = a.flushGroups(); err == nil {
			err = a.mergePartitions()
		}
	default:
		a.emitGroups()
	}
	// The table is spent: what is left of the operator is a.out.
	a.index, a.keys, a.accs, a.counts = hashIndex{}, nil, nil, nil
	return err
}

// absorb folds one input tuple into its group. In final mode the input
// is a stream of encoded group states, keyed by its leading columns.
func (a *Agg) absorb(t types.Tuple) error {
	g, added := a.lookup(t, a.keyCols)
	if added {
		stateSize := float64(types.EncodedSize(a.group(g).key)) + float64(aggStateWidth*8*len(a.node.Aggs)) + 48
		a.size += stateSize
		if a.size > a.peakMem {
			a.peakMem = a.size
		}
		if a.grant > 0 && a.size > a.grant && !a.spilled {
			if err := a.spill(); err != nil {
				return err
			}
			// Re-locate the group: spill cleared the table.
			g, _ = a.lookup(t, a.keyCols)
			a.size += stateSize
		}
	}
	if a.mode == aggFinal {
		mergeState(a.group(g), t, len(a.node.GroupCols))
		return nil
	}
	return a.update(a.group(g), t)
}

// leadingCols returns the ordinals 0..n-1: where an encoded group state
// carries its key.
func leadingCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// keyEqual reports whether key equals t's values at cols: same kind (or
// both numeric) and equal, column by column.
func keyEqual(key, t types.Tuple, cols []int) bool {
	for i, c := range cols {
		x, y := key[i], t[c]
		if x.Kind() != y.Kind() && !(x.Kind().Numeric() && y.Kind().Numeric()) {
			return false
		}
		if !x.Equal(y) {
			return false
		}
	}
	return true
}

// update applies one tuple to a group's accumulators.
func (a *Agg) update(g group, t types.Tuple) error {
	for i, spec := range a.node.Aggs {
		if spec.Arg == nil { // COUNT(*)
			g.counts[i]++
			continue
		}
		v, err := spec.Arg.Eval(t, a.ctx.Params)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		g.counts[i]++
		if g.sums[i].IsNull() {
			g.sums[i] = v
		} else {
			s, err := g.sums[i].Add(v)
			if err != nil {
				return err
			}
			g.sums[i] = s
		}
		if g.mins[i].IsNull() || v.Compare(g.mins[i]) < 0 {
			g.mins[i] = v
		}
		if g.maxs[i].IsNull() || v.Compare(g.maxs[i]) > 0 {
			g.maxs[i] = v
		}
	}
	return nil
}

// spill switches to partitioned mode and flushes current groups.
func (a *Agg) spill() error {
	p := 8
	a.parts = make([]*storage.HeapFile, p)
	for i := range a.parts {
		a.parts[i] = storage.NewTempFile(a.ctx.Pool)
	}
	a.spilled = true
	return a.flushGroups()
}

// flushGroups writes every in-memory group's state to its partition, in
// first-seen order, and clears the table.
func (a *Agg) flushGroups() error {
	if a.scratch == nil {
		a.scratch = make(types.Tuple, a.stateWidth())
	}
	for g, h := range a.index.hashes {
		// Append encodes the state into the page: one scratch serves
		// every group.
		encodeState(a.scratch, a.group(g))
		idx := int((h >> 32) % uint64(len(a.parts)))
		if _, err := a.parts[idx].Append(a.scratch); err != nil {
			return err
		}
	}
	a.resetGroups()
	a.size = 0
	return nil
}

// stateWidth is the number of values in an encoded group state.
func (a *Agg) stateWidth() int {
	return len(a.node.GroupCols) + aggStateWidth*len(a.node.Aggs)
}

// encodeState flattens a group into dst: key values, then per aggregate
// sum, count, min, max.
func encodeState(dst types.Tuple, g group) {
	st := dst[copy(dst, g.key):]
	for i := range g.sums {
		st[0], st[1], st[2], st[3] = g.sums[i], types.NewInt(g.counts[i]), g.mins[i], g.maxs[i]
		st = st[aggStateWidth:]
	}
}

// mergePartitions re-aggregates each partition's states and emits.
func (a *Agg) mergePartitions() error {
	nk := len(a.node.GroupCols)
	keyCols := leadingCols(nk)
	for _, part := range a.parts {
		if err := faultinject.Hit("exec.agg.merge"); err != nil {
			return err
		}
		a.resetGroups()
		s := part.Scan().Lend() // mergeState copies what it keeps
		for s.Next() {
			if err := a.ctx.Tick(); err != nil {
				return err
			}
			a.ctx.Meter.ChargeTuples(1)
			st := s.Tuple()
			g, _ := a.lookup(st, keyCols)
			mergeState(a.group(g), st, nk)
		}
		if err := s.Err(); err != nil {
			return err
		}
		a.emitGroups()
		part.Drop()
	}
	return nil
}

// mergeState folds an encoded state tuple into a group.
func mergeState(g group, st types.Tuple, nk int) {
	for i := range g.sums {
		base := nk + i*aggStateWidth
		sum, cnt, mn, mx := st[base], st[base+1], st[base+2], st[base+3]
		g.counts[i] += cnt.Int()
		if !sum.IsNull() {
			if g.sums[i].IsNull() {
				g.sums[i] = sum
			} else {
				g.sums[i], _ = g.sums[i].Add(sum)
			}
		}
		if !mn.IsNull() && (g.mins[i].IsNull() || mn.Compare(g.mins[i]) < 0) {
			g.mins[i] = mn
		}
		if !mx.IsNull() && (g.maxs[i].IsNull() || mx.Compare(g.maxs[i]) > 0) {
			g.maxs[i] = mx
		}
	}
}

// emitStates renders the partial aggregate's output: every group's
// encoded state, in first-seen order. A spilled partial aggregate streams
// its partition files back out unchanged — a group flushed twice yields
// two states for the same key, which the downstream final merge combines.
func (a *Agg) emitStates() error {
	n, width := a.index.len(), a.stateWidth()
	for g := 0; g < n; g++ {
		state := a.mem.New(width, n-g)
		encodeState(state, a.group(g))
		a.out = append(a.out, state)
	}
	for i, part := range a.parts {
		s := part.Scan()
		for s.Next() {
			if err := a.ctx.Tick(); err != nil {
				return err
			}
			a.ctx.Meter.ChargeTuples(1)
			a.out = append(a.out, s.Tuple())
		}
		if err := s.Err(); err != nil {
			return err
		}
		part.Drop()
		a.parts[i] = nil
	}
	return nil
}

// emitGroups converts all in-memory groups to output rows, in first-seen
// order: group columns then aggregate results, matching the node's
// output schema.
func (a *Agg) emitGroups() {
	n := a.index.len()
	nk := len(a.node.GroupCols)
	for i := 0; i < n; i++ {
		g := a.group(i)
		row := a.mem.New(nk+len(a.node.Aggs), n-i)
		copy(row, g.key)
		for j, spec := range a.node.Aggs {
			row[nk+j] = finalizeAgg(spec.Func, g, j)
		}
		a.out = append(a.out, row)
	}
}

func finalizeAgg(f sql.AggFunc, g group, i int) types.Value {
	switch f {
	case sql.AggCount:
		return types.NewInt(g.counts[i])
	case sql.AggSum:
		return g.sums[i]
	case sql.AggAvg:
		if g.counts[i] == 0 || g.sums[i].IsNull() {
			return types.Null()
		}
		return types.NewFloat(g.sums[i].AsFloat() / float64(g.counts[i]))
	case sql.AggMin:
		return g.mins[i]
	case sql.AggMax:
		return g.maxs[i]
	default:
		return types.Null()
	}
}

// Next implements Operator.
func (a *Agg) Next() (types.Tuple, error) {
	if a.outPos >= len(a.out) {
		return nil, nil
	}
	t := a.out[a.outPos]
	a.outPos++
	a.ctx.Meter.ChargeTuples(1)
	return t, nil
}

// Spilled reports whether the aggregate degraded to partitioned mode.
func (a *Agg) Spilled() bool { return a.spilled }

// MemUsed reports the peak group-table memory in bytes.
func (a *Agg) MemUsed() float64 { return a.peakMem }

// SpilledBytes reports the bytes currently held in spill partitions
// (entries are nil'd as emitStates consumes them; the progress layer
// keeps the high-water mark).
func (a *Agg) SpilledBytes() float64 {
	var b float64
	for _, h := range a.parts {
		if h != nil {
			b += float64(h.ByteSize())
		}
	}
	return b
}

// Close implements Operator. Idempotent; cascades to the input so an
// abort mid-absorb releases the child's side state too.
func (a *Agg) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	for _, p := range a.parts {
		if p != nil {
			p.Drop()
		}
	}
	a.out = nil
	return a.in.Close()
}
