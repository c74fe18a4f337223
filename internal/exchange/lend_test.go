package exchange

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// opaque passes its input's tuples on but is no operator exec.Lend looks
// into: whoever reads through it reads an input that keeps the default
// rule.
type opaque struct{ exec.Operator }

// rendered runs op to the end and returns its rows, rendered and sorted.
func rendered(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func mustBuild(t *testing.T, n plan.Node, ctx *exec.Ctx) exec.Operator {
	t.Helper()
	op, err := exec.Build(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// leafUnder is the leaf gather under a parallelized aggregation:
// gather{agg{gather{scan}}}.
func leafUnder(x plan.Node) plan.Node {
	return x.(*plan.Exchange).Input.(*plan.Agg).Input
}

// TestLendingContractAcrossExchanges runs every reader that lends an
// exchange — a parallel aggregation's final merge and partials, the
// aggregation router over a gather the dispatcher built, a join
// pipeline's probe, a projection over a gather — at degree 1, 2 and 4
// over a multi-page table, with and without EXPLAIN ANALYZE's wrappers.
// Lent, each must return what it returns unlent and what the serial plan
// returns. The lent run must recycle: the scans under the exchange reuse
// one block and the chunks carry their values in blocks that come back,
// where the unlent scans allocate one a page. And a reader that keeps a
// lent gather's tuple past its next Next reads NULLs.
func TestLendingContractAcrossExchanges(t *testing.T) {
	e := newEnv()
	big, dim := e.table(t, "big", 40*chunkCap), e.table(t, "dim", 300)
	pages := big.Heap.NumPages()
	if pages < 20 {
		t.Fatalf("big has %d pages: too few to tell recycling from not", pages)
	}
	type builder func(x plan.Node, lent bool, ctx *exec.Ctx) exec.Operator
	readers := []struct {
		name  string
		plan  func() plan.Node
		build builder
	}{
		{"partial and final aggregate", func() plan.Node { return aggOf(big) }, func(x plan.Node, lent bool, ctx *exec.Ctx) exec.Operator {
			if lent {
				op, _ := aggStage(x, nil, ctx)
				return op
			}
			_, s := aggStage(x, opaque{mustBuild(t, leafUnder(x), ctx)}, ctx)
			fc := *ctx
			fc.GrantShare = 0.5
			return exec.NewFinalAgg(s.agg, opaque{s}, &fc)
		}},
		{"aggregation router over a leaf gather", func() plan.Node { return aggOf(big) }, func(x plan.Node, lent bool, ctx *exec.Ctx) exec.Operator {
			in := mustBuild(t, leafUnder(x), ctx)
			if !lent {
				in = opaque{in}
			}
			op, _ := aggStage(x, in, ctx)
			return op
		}},
		{"join probe", func() plan.Node { return joinOf(dim, big) }, func(x plan.Node, lent bool, ctx *exec.Ctx) exec.Operator {
			op, err := buildExchange(x.(*plan.Exchange), nil, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !lent {
				// Open assembles the routers; the probe router's
				// producers start at the first Next.
				s := op.(*stage)
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				s.late.lent = false
			}
			return op
		}},
		{"projection over a gather", func() plan.Node {
			return &plan.Project{Input: scanOf(big),
				Exprs: []plan.Expr{&plan.ColExpr{Idx: 2, Col: big.Schema.Columns[2]}, &plan.ColExpr{Idx: 0, Col: big.Schema.Columns[0]}},
				Out:   big.Schema.Project([]int{2, 0})}
		}, func(x plan.Node, lent bool, ctx *exec.Ctx) exec.Operator {
			if lent {
				return mustBuild(t, x, ctx)
			}
			p := x.(*plan.Project)
			return exec.NewProject(p, opaque{mustBuild(t, p.Input, ctx)}, ctx)
		}},
	}
	for _, r := range readers {
		want := multiset(t, e, r.plan())
		for _, deg := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s, degree %d", r.name, deg)
			x := topsPass(r.plan(), deg)
			for _, analyze := range []bool{false, true} {
				ctx := e.ctx(context.Background())
				if analyze {
					ctx.Prog = obs.NewProgress("q", 0, "", true)
				}
				lent, unlent := rendered(t, r.build(x, true, ctx)), rendered(t, r.build(x, false, ctx))
				if !slices.Equal(lent, want) || !slices.Equal(unlent, want) {
					t.Fatalf("%s, analyze %v: %d rows lent, %d unlent, %d serial, or the same counts but other rows",
						label, analyze, len(lent), len(unlent), len(want))
				}
			}
			// With the collector off: it empties the disk's pool of freed
			// pages when it likes.
			run := func(lent bool) func() {
				return func() {
					if _, err := exec.Collect(r.build(x, lent, e.ctx(context.Background()))); err != nil {
						t.Fatal(err)
					}
				}
			}
			gc := debug.SetGCPercent(-1)
			lentAllocs, unlentAllocs := testing.AllocsPerRun(1, run(true)), testing.AllocsPerRun(1, run(false))
			debug.SetGCPercent(gc)
			t.Logf("%s: %.0f allocations lent, %.0f not", label, lentAllocs, unlentAllocs)
			if lentAllocs > unlentAllocs-float64(pages)/3 {
				t.Errorf("%s: %.0f allocations lent, %.0f not, over a scan of %d pages: the exchange did not recycle",
					label, lentAllocs, unlentAllocs, pages)
			}
		}
	}

	for _, deg := range []int{1, 2, 4} {
		g := leafStage(topsPass(scanOf(big), deg), e.ctx(context.Background()))
		if !exec.Lend(g) {
			t.Fatal("a leaf gather does not honour Lend")
		}
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		first, err := g.Next()
		if err != nil || first == nil {
			t.Fatalf("first Next = %v, %v", first, err)
		}
		if n, err := exec.Drain(g); err != nil || n != int64(big.Heap.NumTuples())-1 {
			t.Fatalf("degree %d: drained %d more rows: %v", deg, n, err)
		}
		g.Close()
		for i, v := range first {
			if !v.IsNull() {
				t.Errorf("degree %d: column %d of a tuple kept past its chunk reads %v, not NULL", deg, i, v)
			}
		}
	}
}
