package exec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// refGroup is one group under the generic Value path the compiled
// accumulators replaced, kept as their reference: a sum, count, min and
// max for every aggregate whatever its function, folded with Value.Add
// and Value.Compare.
type refGroup struct {
	key              types.Tuple
	sums, mins, maxs []types.Value
	counts           []int64
}

func newRefGroup(key types.Tuple, na int) *refGroup {
	return &refGroup{key: key, sums: make([]types.Value, na), mins: make([]types.Value, na),
		maxs: make([]types.Value, na), counts: make([]int64, na)}
}

// update applies one input row.
func (g *refGroup) update(specs []plan.AggSpec, t types.Tuple) error {
	for i, spec := range specs {
		if spec.Arg == nil {
			g.counts[i]++
			continue
		}
		v, err := spec.Arg.Eval(t, nil)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		g.counts[i]++
		if g.sums[i].IsNull() {
			g.sums[i] = v
		} else if g.sums[i], err = g.sums[i].Add(v); err != nil {
			return err
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

// merge folds an encoded state, every slot of it.
func (g *refGroup) merge(st types.Tuple, nk int) {
	for i := range g.sums {
		slots := st[nk+i*aggStateWidth:]
		sum, cnt, mn, mx := slots[0], slots[1], slots[2], slots[3]
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

// state is the group's generic encoded state: key, then per aggregate
// sum, count, min, max.
func (g *refGroup) state() types.Tuple {
	st := slices.Clone(g.key)
	for i := range g.sums {
		st = append(st, g.sums[i], types.NewInt(g.counts[i]), g.mins[i], g.maxs[i])
	}
	return st
}

// compiledState is the state Agg writes for the group: per aggregate its
// count, and in all three value slots the value its function reads — the
// sum, the min or the max; a COUNT(arg)'s count once it is > 0; else
// NULL.
func (g *refGroup) compiledState(specs []plan.AggSpec) types.Tuple {
	st := slices.Clone(g.key)
	for i, spec := range specs {
		var v types.Value
		switch spec.Func {
		case sql.AggSum, sql.AggAvg:
			v = g.sums[i]
		case sql.AggMin:
			v = g.mins[i]
		case sql.AggMax:
			v = g.maxs[i]
		case sql.AggCount:
			if spec.Arg != nil && g.counts[i] > 0 {
				v = types.NewInt(g.counts[i])
			}
		}
		st = append(st, v, types.NewInt(g.counts[i]), v, v)
	}
	return st
}

// row is the group's finished row.
func (g *refGroup) row(specs []plan.AggSpec) types.Tuple {
	r := slices.Clone(g.key)
	for i, spec := range specs {
		var v types.Value
		switch spec.Func {
		case sql.AggCount:
			v = types.NewInt(g.counts[i])
		case sql.AggSum:
			v = g.sums[i]
		case sql.AggAvg:
			if g.counts[i] != 0 && !g.sums[i].IsNull() {
				v = types.NewFloat(g.sums[i].AsFloat() / float64(g.counts[i]))
			}
		case sql.AggMin:
			v = g.mins[i]
		case sql.AggMax:
			v = g.maxs[i]
		}
		r = append(r, v)
	}
	return r
}

// refAgg groups a stream of rows or states with refGroups, in first-seen
// order, and spills as Agg does: once, when a new group takes the table
// past a grant > 0, every group then held — the new, empty one too — is
// flushed.
type refAgg struct {
	specs   []plan.AggSpec
	keyCols []int
	grant   float64
	size    float64
	spilled bool
	at      map[string]int
	groups  []*refGroup
	flushed []*refGroup
}

func newRefAgg(specs []plan.AggSpec, keyCols []int, grant float64) *refAgg {
	return &refAgg{specs: specs, keyCols: keyCols, grant: grant, at: map[string]int{}}
}

func (r *refAgg) group(t types.Tuple) *refGroup {
	key := make(types.Tuple, len(r.keyCols))
	for i, c := range r.keyCols {
		key[i] = t[c]
	}
	k := string(types.EncodeTuple(nil, key))
	if i, ok := r.at[k]; ok {
		return r.groups[i]
	}
	add := func() *refGroup {
		g := newRefGroup(key, len(r.specs))
		r.at[k] = len(r.groups)
		r.groups = append(r.groups, g)
		return g
	}
	g := add()
	stateSize := float64(types.EncodedSize(key)) + float64(aggStateWidth*8*len(r.specs)) + 48
	r.size += stateSize
	if r.grant > 0 && r.size > r.grant && !r.spilled {
		r.spilled, r.flushed = true, r.groups
		r.groups, r.at = nil, map[string]int{}
		g, r.size = add(), stateSize
	}
	return g
}

func (r *refAgg) absorb(t types.Tuple) error { return r.group(t).update(r.specs, t) }

func (r *refAgg) absorbState(st types.Tuple) { r.group(st).merge(st, len(r.keyCols)) }

// states is every group's generic state, flushed ones first.
func (r *refAgg) states() []types.Tuple {
	var out []types.Tuple
	for _, g := range append(slices.Clone(r.flushed), r.groups...) {
		out = append(out, g.state())
	}
	return out
}

// runAgg runs node over rows at degree 1 (one complete Agg), or at
// degree d > 1 as a parallel region does: d partial Aggs over the rows
// dealt round-robin, and a final Agg over their states in worker order.
func runAgg(t *testing.T, ctx *Ctx, node *plan.Agg, in *types.Schema, rows []types.Tuple, degree int) []types.Tuple {
	t.Helper()
	if degree <= 1 {
		return collectAll(t, NewAgg(node, &tupleSource{sch: in, rows: rows}, ctx))
	}
	var states []types.Tuple
	for w := 0; w < degree; w++ {
		var part []types.Tuple
		for i := w; i < len(rows); i += degree {
			part = append(part, rows[i])
		}
		states = append(states, collectAll(t, NewPartialAgg(node, &tupleSource{sch: in, rows: part}, ctx))...)
	}
	return collectAll(t, NewFinalAgg(node, &tupleSource{rows: states}, ctx))
}

// fuzzAggNode is an aggregate of every function over an input (g, x) —
// grouped by g or not — and a SUM of x*1, an argument to evaluate.
func fuzzAggNode(grouped bool, grant float64) (*plan.Agg, *types.Schema) {
	in := types.NewSchema(types.Column{Name: "g", Kind: types.KindInt}, types.Column{Name: "x", Kind: types.KindFloat})
	x := &plan.ColExpr{Idx: 1, Col: in.Columns[1]}
	specs := []plan.AggSpec{
		{Func: sql.AggSum, Arg: x}, {Func: sql.AggAvg, Arg: x}, {Func: sql.AggCount, Arg: x},
		{Func: sql.AggCount}, {Func: sql.AggMin, Arg: x}, {Func: sql.AggMax, Arg: x},
		{Func: sql.AggSum, Arg: &plan.BinExpr{Op: '*', Left: x, Right: &plan.ConstExpr{Val: types.NewInt(1)}}},
	}
	var cols []types.Column
	n := &plan.Agg{Aggs: specs}
	if grouped {
		n.GroupCols = []int{0}
		cols = append(cols, in.Columns[0])
	}
	for range specs {
		cols = append(cols, types.Column{Name: "a", Kind: types.KindFloat})
	}
	n.Out = types.NewSchema(cols...)
	n.Est().Grant = grant
	return n, in
}

// aggStream decodes fuzz bytes into rows (g, x), two bytes a row: the
// first picks the group (0, 1, 2 or a NULL key) and x's kind, the second
// its payload. x is INTEGER or FLOAT, mixed within a group, or NULL, and
// takes NaN, -0, infinities and INTEGERs at the ends of int64's range.
// Rows past the 64th are dropped: what a longer stream could add, a
// shorter one has.
func aggStream(data []byte) []types.Tuple {
	var rows []types.Tuple
	data = data[:min(len(data), 128)]
	for ; len(data) >= 2; data = data[2:] {
		sel, b := data[0], data[1]
		g := types.NewInt(int64(sel & 3))
		if sel&3 == 3 {
			g = types.Null()
		}
		var x types.Value
		switch sel >> 2 & 7 {
		case 1:
			x = types.NewInt(int64(int8(b)))
		case 2:
			x = types.NewInt(math.MaxInt64 - int64(b))
		case 3:
			x = types.NewInt(math.MinInt64 + int64(b))
		case 4:
			x = types.NewFloat(float64(int8(b)) / 4)
		case 5:
			x = types.NewFloat(math.NaN())
		case 6:
			x = types.NewFloat(math.Inf(int(b&1)*2-1) * float64(b>>1&1)) // ±Inf, or a signed zero
		case 7:
			x = types.NewFloat(float64(int8(b)) * 1e300)
		}
		rows = append(rows, types.Tuple{g, x})
	}
	return rows
}

// sameTuples reports, with the first difference, whether got and want
// encode to the same bytes: in order, or as multisets.
func sameTuples(got, want []types.Tuple, ordered bool) (bool, string) {
	enc := func(ts []types.Tuple) [][]byte {
		out := make([][]byte, len(ts))
		for i, t := range ts {
			out[i] = types.EncodeTuple(nil, t)
		}
		if !ordered {
			slices.SortFunc(out, bytes.Compare)
		}
		return out
	}
	g, w := enc(got), enc(want)
	if len(g) != len(w) {
		return false, fmt.Sprintf("got %d tuples %v, want %d %v", len(g), got, len(w), want)
	}
	for i := range g {
		if !bytes.Equal(g[i], w[i]) {
			return false, fmt.Sprintf("got %v, want %v", got, want)
		}
	}
	return true, ""
}

// FuzzAggAccumulators checks the compiled accumulators against the
// generic Value path over streams of INTEGER, FLOAT and NULL arguments:
// finished rows and encoded states, byte for byte, at degree 1 and 2 and
// spilled, and every state as wide as the generic one.
func FuzzAggAccumulators(f *testing.F) {
	f.Add([]byte{0, 0x04, 1, 0x08, 4, 0xff, 0x05, 0x10, 0x01})                         // INTEGERs and NULL
	f.Add([]byte{1, 0x08, 0, 0x08, 1, 0x08, 0, 0x05, 0x08, 0x09, 0x08})                // int64 wrap-around
	f.Add([]byte{2, 0x04, 3, 0x10, 0x07, 0x04, 0x09, 0x10, 0x0b, 0x14, 0x0e, 0x07})    // promotion mid-stream, a NULL key
	f.Add([]byte{3, 0x14, 0x09, 0x18, 0x03, 0x1c, 0x7f, 0x1c, 0x81, 0x04, 0x02, 0x10}) // NaN, ±Inf, huge floats
	f.Add([]byte{1, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x00, 0x00})       // every group empty
	e := newEnv(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rows := aggStream(data[1:])
		for _, grouped := range []bool{false, true} {
			node, in := fuzzAggNode(grouped, 0)
			specs := node.Aggs
			ref := newRefAgg(specs, node.GroupCols, 0)
			for _, r := range rows {
				if err := ref.absorb(r); err != nil {
					t.Fatal(err)
				}
			}

			// Degree 1: finished rows, in first-seen order.
			var want []types.Tuple
			for _, g := range ref.groups {
				want = append(want, g.row(specs))
			}
			if ok, diff := sameTuples(runAgg(t, e.ctx, node, in, rows, 1), want, true); !ok {
				t.Fatalf("grouped %v, degree 1: %s", grouped, diff)
			}

			// Partial states, and as wide as the generic ones.
			states := collectAll(t, NewPartialAgg(node, &tupleSource{sch: in, rows: rows}, e.ctx))
			var wantStates []types.Tuple
			for i, g := range ref.groups {
				wantStates = append(wantStates, g.compiledState(specs))
				if i < len(states) && types.EncodedSize(states[i]) != types.EncodedSize(g.state()) {
					t.Fatalf("grouped %v: state %v is %d bytes, the generic %v %d", grouped,
						states[i], types.EncodedSize(states[i]), g.state(), types.EncodedSize(g.state()))
				}
			}
			if ok, diff := sameTuples(states, wantStates, true); !ok {
				t.Fatalf("grouped %v, partial states: %s", grouped, diff)
			}

			// Degree 2: the generic merge of the generic states of the
			// two workers' groups.
			final := newRefAgg(specs, leadingCols(len(node.GroupCols)), 0)
			for w := 0; w < 2; w++ {
				part := newRefAgg(specs, node.GroupCols, 0)
				for i := w; i < len(rows); i += 2 {
					part.absorb(rows[i])
				}
				for _, st := range part.states() {
					final.absorbState(st)
				}
			}
			want = want[:0]
			for _, g := range final.groups {
				want = append(want, g.row(specs))
			}
			if ok, diff := sameTuples(runAgg(t, e.ctx, node, in, rows, 2), want, true); !ok {
				t.Fatalf("grouped %v, degree 2: %s", grouped, diff)
			}

			// Spilled after data[0]%4 groups (none for 0): the partial
			// states, then the merged rows, as multisets — a spill
			// reorders groups by partition.
			if !grouped || data[0]%4 == 0 {
				continue
			}
			grant := float64(data[0]%4)*float64(2+9+aggStateWidth*8*len(specs)+48) + 1
			node, _ = fuzzAggNode(true, grant)
			ref = newRefAgg(specs, node.GroupCols, grant)
			for _, r := range rows {
				ref.absorb(r)
			}
			wantStates = wantStates[:0]
			for _, g := range append(slices.Clone(ref.flushed), ref.groups...) {
				st := g.compiledState(specs)
				if types.EncodedSize(st) != types.EncodedSize(g.state()) {
					t.Fatalf("spilled state %v is %d bytes, the generic %v %d", st, types.EncodedSize(st), g.state(), types.EncodedSize(g.state()))
				}
				wantStates = append(wantStates, st)
			}
			if ok, diff := sameTuples(collectAll(t, NewPartialAgg(node, &tupleSource{sch: in, rows: rows}, e.ctx)), wantStates, false); !ok {
				t.Fatalf("spilled partial states: %s", diff)
			}
			merged := newRefAgg(specs, leadingCols(1), 0)
			for _, st := range ref.states() {
				merged.absorbState(st)
			}
			want = want[:0]
			for _, g := range merged.groups {
				want = append(want, g.row(specs))
			}
			if ok, diff := sameTuples(runAgg(t, e.ctx, node, in, rows, 1), want, false); !ok {
				t.Fatalf("spilled, degree 1: %s", diff)
			}
		}
	})
}
