package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/server"
	"repro/internal/types"
)

// floatTol is the relative tolerance for float cells: parallel
// execution sums in a different order than the serial reference.
const floatTol = 1e-9

// renderRows renders tuples the way the server's JSON does.
func renderRows(rows []types.Tuple) [][]string {
	out := make([][]string, len(rows))
	for i, t := range rows {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

// referenceRows computes a statement's answer through the library path:
// the dispatcher in ModeOff, serial, no server, no broker, no cache.
func referenceRows(env *bench.Env, req server.QueryRequest) ([][]string, error) {
	vals, err := server.ParseParams(req.Params)
	if err != nil {
		return nil, err
	}
	params := plan.Params{}
	for k, v := range vals {
		params[k] = v
	}
	cfg := reopt.DefaultConfig(reopt.ModeOff)
	cfg.MemBudget = env.Cfg.MemBudget
	cfg.PoolPages = float64(env.Cfg.PoolPages)
	d := reopt.New(env.Cat, cfg)
	rows, _, err := d.RunSQL(req.SQL, params, &exec.Ctx{Pool: env.Pool, Meter: env.Meter, Params: params})
	if err != nil {
		return nil, err
	}
	return renderRows(rows), nil
}

// references computes the answer of every read op a workload can issue.
func references(env *bench.Env, wl *workload) (map[string][][]string, error) {
	refs := map[string][][]string{}
	for _, o := range wl.refOps() {
		rows, err := referenceRows(env, o.Reqs[0])
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", o.Ref, err)
		}
		refs[o.Ref] = rows
	}
	return refs, nil
}

// sameRows compares two row sets as multisets, float cells to floatTol.
func sameRows(want, got [][]string) bool {
	if len(want) != len(got) {
		return false
	}
	// Fast path: identical after sorting by the exact rendering.
	w, g := sortedRows(want), sortedRows(got)
	exact := true
	for i := range w {
		if w[i] != g[i] {
			exact = false
			break
		}
	}
	if exact {
		return true
	}
	// A float that differs in its last digits can sort elsewhere, so
	// match greedily; result sets here are tens of rows at most.
	used := make([]bool, len(got))
	for _, wr := range want {
		found := false
		for j, gr := range got {
			if !used[j] && sameRow(wr, gr) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

func sameRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameCell(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		return false
	}
	return math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y))
}
