package fuzz

import (
	"repro/internal/types"
)

// reference evaluates the case's query under select list p naively:
// nested loops over the chain join, filters applied to the concatenated
// row, then hash aggregation when grouped. It shares nothing with the
// engine's planner, optimizer, or executors — that independence is what
// makes the differential check meaningful.
func (e *Env) reference(p projection) []types.Tuple {
	c := e.Case
	k := c.JoinK
	used := e.Tables[:k]
	cuts := c.filterCuts()

	// Resolve the host-variable cut to its bound value.
	cutVals := make([]float64, k)
	for i, cut := range cuts {
		cutVals[i] = float64(cut)
	}
	if c.HostVar {
		cutVals[0] = e.Params["cut"].Float()
	}

	key := c.keyPred()
	pass := func(row types.Tuple) bool {
		if c.KeyPred && !key.holds(row[0].Int()) {
			return false
		}
		for i, cut := range cuts {
			if cut < 0 {
				continue
			}
			if row[i*4+3].Float() >= cutVals[i] {
				return false
			}
		}
		return true
	}

	var joined []types.Tuple
	var recurse func(depth int, acc types.Tuple)
	recurse = func(depth int, acc types.Tuple) {
		if depth == k {
			if pass(acc) {
				joined = append(joined, acc)
			}
			return
		}
		for _, row := range used[depth].Rows {
			if depth > 0 {
				// Chain equi-join: prev.fk = cur.pk.
				if !acc[(depth-1)*4+1].Equal(row[0]) {
					continue
				}
			}
			recurse(depth+1, acc.Concat(row))
		}
	}
	recurse(0, types.Tuple{})

	var want []types.Tuple
	switch p {
	case projStar:
		want = joined
	case projGrouped:
		type aggState struct {
			cnt         int64
			sum, mn, mx float64
		}
		gcol := 2 // first table's grp column
		if c.GroupPK {
			gcol = 0 // first table's pk column
		}
		groups := map[int64]*aggState{}
		for _, row := range joined {
			g, v := row[gcol].Int(), row[(k-1)*4+3].Float()
			st := groups[g]
			if st == nil {
				st = &aggState{mn: v, mx: v}
				groups[g] = st
			}
			st.cnt++
			st.sum += v
			st.mn, st.mx = min(st.mn, v), max(st.mx, v)
		}
		for g, st := range groups {
			want = append(want, types.Tuple{types.NewInt(g), types.NewInt(st.cnt), types.NewFloat(st.sum),
				types.NewFloat(st.mn), types.NewFloat(st.mx), types.NewFloat(st.sum / float64(st.cnt)), types.NewInt(st.cnt)})
		}
	default:
		for _, row := range joined {
			want = append(want, types.Tuple{row[0], row[(k-1)*4]})
		}
	}
	return want
}
