package exec

import (
	"fmt"
	"math"

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
// state (key values, then per aggregate the slots sum, count, min, max —
// the representation the spill path writes) doubles as the wire format
// between a parallel region's partial aggregates and the serial final
// merge at the gather point. An aggregate keeps only what its function
// returns, so it writes and reads only some of its slots; encodeState
// says what the others hold.
type aggMode uint8

const (
	// aggComplete consumes raw input and produces finished rows.
	aggComplete aggMode = iota
	// aggPartial consumes raw input and produces encoded group states.
	aggPartial
	// aggFinal consumes encoded group states and produces finished rows.
	aggFinal
)

// Agg is a blocking hash aggregation operator. Group states are
// mergeable, so when the group table exceeds the node's memory grant the
// operator spills encoded partial states to hash partitions and merges
// them partition by partition — one extra write+read pass, mirroring the
// hash join's degradation.
type Agg struct {
	node *plan.Agg
	in   Operator
	ctx  *Ctx
	mode aggMode

	grant float64
	// keyCols are the input ordinals of the group key: the node's
	// GroupCols, or in final mode the state tuples' leading columns.
	keyCols []int
	// argCols is, per aggregate, the input column of a bare column
	// argument, read straight from the tuple; -1 for an argument to
	// evaluate or none.
	argCols []int
	// The group table. Group g — entry g of index, so numbered in
	// first-seen order — owns keys[g*nk:][:nk], counts[g*na:][:na] and
	// vals[g*na:][:na], for nk key columns and na aggregates: slabs that
	// grow by doubling, so a new group allocates nothing of its own.
	// Every aggregate counts — the non-NULL arguments it has folded, or
	// for COUNT(*) the rows — and a SUM or AVG keeps its sum in vals, a
	// MIN or MAX its extreme; a COUNT's stays NULL.
	index   hashIndex
	keys    []types.Value
	counts  []int64
	vals    []types.Value
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

// compile fixes the group key's input columns and the aggregates'
// argument columns.
func (a *Agg) compile() {
	a.keyCols = a.node.GroupCols
	if a.mode == aggFinal {
		a.keyCols = leadingCols(len(a.node.GroupCols))
	}
	a.argCols = make([]int, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		a.argCols[i] = -1
		if c, ok := spec.Arg.(*plan.ColExpr); ok {
			a.argCols[i] = c.Idx
		}
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
	a.counts = extend(a.counts, len(a.node.Aggs))
	a.vals = extend(a.vals, len(a.node.Aggs))
	return g, true
}

// resetGroups empties the group table, keeping its slabs for the next
// fill and letting go of the values they held.
func (a *Agg) resetGroups() {
	a.index.reset()
	clear(a.keys)
	clear(a.vals)
	a.keys, a.counts, a.vals = a.keys[:0], a.counts[:0], a.vals[:0]
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
	a.compile()
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
	a.index, a.keys, a.counts, a.vals = hashIndex{}, nil, nil, nil
	return err
}

// absorb folds one input tuple into its group. In final mode the input
// is a stream of encoded group states, keyed by its leading columns.
func (a *Agg) absorb(t types.Tuple) error {
	g, added := a.lookup(t, a.keyCols)
	if added {
		nk := len(a.keyCols)
		stateSize := float64(types.EncodedSize(a.keys[g*nk:][:nk])) + float64(aggStateWidth*8*len(a.node.Aggs)) + 48
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
		return a.merge(g, t)
	}
	return a.fold(g, t)
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

// keyEqual reports whether key equals t's values at cols, column by
// column.
func keyEqual(key, t types.Tuple, cols []int) bool {
	for i, c := range cols {
		if !key[i].Equal(t[c]) {
			return false
		}
	}
	return true
}

// fold applies one input row to group g's aggregates.
func (a *Agg) fold(g int, t types.Tuple) error {
	na := len(a.node.Aggs)
	counts, vals := a.counts[g*na:][:na], a.vals[g*na:][:na]
	for i := range a.node.Aggs {
		spec := &a.node.Aggs[i]
		if spec.Arg == nil { // COUNT(*)
			counts[i]++
			continue
		}
		var v types.Value
		if c := a.argCols[i]; uint(c) < uint(len(t)) {
			v = t[c]
		} else {
			// An expression, or a column out of range: Eval's error.
			var err error
			if v, err = spec.Arg.Eval(t, a.ctx.Params); err != nil {
				return err
			}
		}
		if v.IsNull() {
			continue
		}
		counts[i]++
		if err := add(spec.Func, &vals[i], v); err != nil {
			return err
		}
	}
	return nil
}

// merge folds an encoded state into group g: each aggregate's count, and
// the one value slot its function reads.
func (a *Agg) merge(g int, st types.Tuple) error {
	na := len(a.node.Aggs)
	counts, vals := a.counts[g*na:][:na], a.vals[g*na:][:na]
	st = st[len(a.keyCols):]
	for i, spec := range a.node.Aggs {
		slots := st[i*aggStateWidth:][:aggStateWidth]
		counts[i] += slots[1].Int()
		var v types.Value
		switch spec.Func {
		case sql.AggSum, sql.AggAvg:
			v = slots[0]
		case sql.AggMin:
			v = slots[2]
		case sql.AggMax:
			v = slots[3]
		}
		if v.IsNull() {
			continue
		}
		if err := add(spec.Func, &vals[i], v); err != nil {
			return err
		}
	}
	return nil
}

// add folds v — one row's argument, or the sum, min or max of a merged
// state's rows — into x, the value an aggregate of function f keeps. v
// is not NULL. A sum adds as Value.Add does, an INTEGER sum wrapping and
// the first FLOAT promoting it, but where both are FLOATs or both
// INTEGERs without its checks; a value that is not a number is an error,
// the first too.
func add(f sql.AggFunc, x *types.Value, v types.Value) (err error) {
	switch k := v.Kind(); {
	case f == sql.AggMin || f == sql.AggMax:
		if c := v.Compare(*x); x.IsNull() || f == sql.AggMin && c < 0 || f == sql.AggMax && c > 0 {
			*x = v
		}
	case f != sql.AggSum && f != sql.AggAvg: // COUNT keeps no value
	case k == types.KindFloat && x.Kind() == k:
		*x = types.NewFloat(math.Float64frombits(x.Bits()) + math.Float64frombits(v.Bits()))
	case k == types.KindInt && x.Kind() == k:
		*x = types.NewInt(int64(x.Bits() + v.Bits()))
	case !k.Numeric():
		err = fmt.Errorf("exec: cannot add %s to a sum", k)
	case x.IsNull():
		*x = v
	default:
		*x, err = x.Add(v)
	}
	return err
}

// spill switches to partitioned mode and flushes current groups.
func (a *Agg) spill() error {
	p := 8
	a.parts = make([]*storage.HeapFile, p)
	for i := range a.parts {
		a.parts[i] = storage.NewTempFile(a.ctx.Pool, a.ctx.Meter)
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
		a.encodeState(a.scratch, g)
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

// encodeState flattens group g into dst: key values, then per aggregate
// four slots, sum, count, min, max. The count slot holds the count; each
// value slot holds the aggregate's one value — its sum or extreme, a
// COUNT(arg)'s count once that is > 0, else NULL — though merge reads
// only the slot its function names. So for a numeric argument a value
// slot is NULL exactly when the count is 0, as when every aggregate kept
// all four values, and a state is just as wide.
func (a *Agg) encodeState(dst types.Tuple, g int) {
	nk, na := len(a.keyCols), len(a.node.Aggs)
	st := dst[copy(dst, a.keys[g*nk:][:nk]):]
	for i, spec := range a.node.Aggs {
		n, v := a.counts[g*na+i], a.vals[g*na+i]
		if spec.Func == sql.AggCount && spec.Arg != nil && n > 0 {
			v = types.NewInt(n)
		}
		st[0], st[1], st[2], st[3] = v, types.NewInt(n), v, v
		st = st[aggStateWidth:]
	}
}

// mergePartitions re-aggregates each partition's states and emits.
func (a *Agg) mergePartitions() error {
	nk := len(a.node.GroupCols)
	keyCols := leadingCols(nk)
	var s storage.HeapScanner
	s.Lend() // merge copies what it keeps
	for _, part := range a.parts {
		if err := faultinject.Hit("exec.agg.merge"); err != nil {
			return err
		}
		a.resetGroups()
		s.Reset(part)
		for s.Next() {
			if err := a.ctx.Tick(); err != nil {
				return err
			}
			a.ctx.Meter.ChargeTuples(1)
			st := s.Tuple()
			g, _ := a.lookup(st, keyCols)
			if err := a.merge(g, st); err != nil {
				return err
			}
		}
		if err := s.Err(); err != nil {
			return err
		}
		a.emitGroups()
		part.Drop()
	}
	return nil
}

// emitStates renders the partial aggregate's output: every group's
// encoded state, in first-seen order. A spilled partial aggregate streams
// its partition files back out unchanged — a group flushed twice yields
// two states for the same key, which the downstream final merge combines.
func (a *Agg) emitStates() error {
	n, width := a.index.len(), a.stateWidth()
	for g := 0; g < n; g++ {
		state := a.mem.New(width, n-g)
		a.encodeState(state, g)
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
	n, nk, na := a.index.len(), len(a.keyCols), len(a.node.Aggs)
	for g := 0; g < n; g++ {
		row := a.mem.New(nk+na, n-g)
		copy(row, a.keys[g*nk:][:nk])
		for i, spec := range a.node.Aggs {
			cnt, v := a.counts[g*na+i], a.vals[g*na+i]
			switch {
			case spec.Func == sql.AggCount:
				v = types.NewInt(cnt)
			case spec.Func == sql.AggAvg && !v.IsNull():
				v = types.NewFloat(v.AsFloat() / float64(cnt))
			}
			row[nk+i] = v
		}
		a.out = append(a.out, row)
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
