package exchange

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/types"
)

// shapes are the three segments Parallelize emits, over one table. The
// join builds under a grant far below its build side and the aggregation
// has a group per row, so both spill, and both emit a row per input row.
var shapes = []struct {
	name   string
	opens  string // a fault site inside each pipeline's Open
	spills string // a fault site only a spilling run passes
	plan   func(*catalog.Table) plan.Node
}{
	{"leaf", "exchange.worker", "", func(t *catalog.Table) plan.Node { return scanOf(t) }},
	{"join", "exec.hashjoin.build", "exec.hashjoin.spill", func(t *catalog.Table) plan.Node {
		j := joinOf(t, t)
		j.Est().Grant = 4096
		return j
	}},
	{"agg", "exec.agg.absorb", "exec.agg.merge", func(t *catalog.Table) plan.Node {
		a := aggOf(t)
		a.GroupCols = []int{0}
		a.Out = types.NewSchema(t.Schema.Columns[0], a.Out.Columns[1], a.Out.Columns[2])
		a.Est().Grant = 4096
		return a
	}},
}

// shapeOp parallelizes a shape's plan over left (nil: built from the
// plan) and returns its operator and the stage in it (under the final
// merge, for the aggregation).
func shapeOp(t *testing.T, n plan.Node, deg int, left exec.Operator, ctx *exec.Ctx) (exec.Operator, *stage) {
	t.Helper()
	x := topsPass(n, deg)
	if _, ok := n.(*plan.Agg); ok {
		return aggStage(x, left, ctx)
	}
	op, err := buildExchange(x.(*plan.Exchange), left, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return op, op.(*stage)
}

// residue is what a closed stage must not leave behind.
type residue struct {
	e       *testEnv
	settled func() bool
	pages   int
}

func (e *testEnv) residue() residue {
	return residue{e: e, settled: settles(), pages: e.pool.Disk().NumPages()}
}

// check fails the test unless the goroutines are back to the baseline,
// no temp file is left on the disk, and every worker of s and of the
// stages that fed it has forwarded all it charged.
func (r residue) check(t *testing.T, what string, s *stage) {
	t.Helper()
	waitFor(t, what+": its goroutines to exit", r.settled)
	if got := r.e.pool.Disk().NumPages(); got != r.pages {
		t.Errorf("%s: %d disk pages allocated, %d before: a spill file was left behind", what, got, r.pages)
	}
	for ; s != nil && s.reg != nil; s = feeder(s) {
		forwarded(t, what, s.reg)
	}
}

// closeCounter counts what the stage does to a producer it was handed.
type closeCounter struct {
	exec.Operator
	opens, closes int
}

func (c *closeCounter) Open() error  { c.opens++; return c.Operator.Open() }
func (c *closeCounter) Close() error { c.closes++; return c.Operator.Close() }

// orTimeout runs one call of an operator from another goroutine and
// fails the test if it blocks.
func orTimeout(t *testing.T, what string, call func() (types.Tuple, error)) (types.Tuple, error) {
	t.Helper()
	type res struct {
		tup types.Tuple
		err error
	}
	done := make(chan res, 1)
	go func() {
		tup, err := call()
		done <- res{tup, err}
	}()
	select {
	case r := <-done:
		return r.tup, r.err
	case <-time.After(10 * time.Second):
		t.Fatal(what + " blocked on something nobody will release")
		return nil, nil
	}
}

func nextOrTimeout(t *testing.T, op exec.Operator) (types.Tuple, error) {
	t.Helper()
	return orTimeout(t, "Next", op.Next)
}

func openOrTimeout(t *testing.T, op exec.Operator) error {
	t.Helper()
	_, err := orTimeout(t, "Open", func() (types.Tuple, error) { return nil, op.Open() })
	return err
}

// The one Open, Next and Close serve every shape at every degree through
// the orders a consumer may call them in.
func TestStageLifecycle(t *testing.T) {
	e := newEnv()
	tbl := e.table(t, "big", 16*chanCap*chunkCap)
	boom := errors.New("injected failure")
	for _, sh := range shapes {
		for _, deg := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/degree%d", sh.name, deg)
			mk := func() (*stage, residue) {
				res := e.residue()
				_, s := shapeOp(t, sh.plan(tbl), deg, nil, e.ctx(context.Background()))
				return s, res
			}

			t.Run(name+"/CloseBeforeOpen", func(t *testing.T) {
				s, res := mk()
				s.Close()
				s.Close()
				if tup, err := s.Next(); tup != nil || err != nil {
					t.Errorf("Next on a stage never opened = %v, %v", tup, err)
				}
				res.check(t, name, s)
				if sh.name == "leaf" {
					return // a leaf over a built stream is that stream
				}

				// The dispatcher's input, built and maybe opened before the
				// stage existed, is the stage's to close from then on.
				res = e.residue()
				ctx := e.ctx(context.Background())
				in, err := exec.Build(scanOf(tbl), ctx)
				if err != nil {
					t.Fatal(err)
				}
				left := &closeCounter{Operator: in}
				_, s = shapeOp(t, sh.plan(tbl), deg, left, ctx)
				s.Close()
				s.Close()
				if left.opens != 0 || left.closes != 1 {
					t.Errorf("the input handed to a stage never opened: opened %d times, closed %d; want never opened, closed once", left.opens, left.closes)
				}
				res.check(t, name, s)
			})

			// The plan-switch case: a join's probe scans were built and
			// nothing ran them; Close reaches them all the same.
			t.Run(name+"/CloseAfterOpen", func(t *testing.T) {
				s, res := mk()
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				if err := s.Open(); err != nil {
					t.Errorf("second Open = %v", err)
				}
				probes := make([]*closeCounter, len(s.late.from))
				for p := range s.late.from {
					probes[p] = &closeCounter{Operator: s.late.from[p].op}
					s.late.from[p].op = probes[p]
				}
				if sh.name == "join" && len(probes) != deg {
					t.Fatalf("join stage has %d probe scans after Open, want %d", len(probes), deg)
				}
				s.Close()
				for p, c := range probes {
					if c.opens != 0 || c.closes != 1 {
						t.Errorf("probe scan %d: opened %d times, closed %d; want never opened, closed once", p, c.opens, c.closes)
					}
				}
				s.Close()
				res.check(t, name, s)
			})

			t.Run(name+"/CloseMidStreamWithFullQueues", func(t *testing.T) {
				s, res := mk()
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				if tup, err := s.Next(); tup == nil || err != nil {
					t.Fatalf("first Next = %v, %v", tup, err)
				}
				waitFor(t, "a full gather queue", func() bool { return anyFull(s.out.q) })
				s.Close()
				s.Close()
				res.check(t, name, s)
			})

			// A pipeline's Open that fails, and one that panics: Open
			// returns what happened instead of waiting for that pipeline.
			for what, fault := range map[string]struct {
				site string
				f    faultinject.Fault
			}{
				"Failed":    {"exchange.worker", faultinject.Fault{Err: boom}},
				"Panicking": {sh.opens, faultinject.Fault{Panic: "injected panic", After: min(2, deg)}},
			} {
				t.Run(name+"/NextAfter"+what+"Open", func(t *testing.T) {
					inj := faultinject.Enable()
					defer faultinject.Disable()
					inj.Arm(fault.site, fault.f)
					s, res := mk()
					openErr := openOrTimeout(t, s)
					if fault.f.Err != nil && openErr != boom {
						t.Fatalf("Open = %v, want the injected failure", openErr)
					}
					if fault.f.Panic != nil && (openErr == nil || !strings.Contains(openErr.Error(), "panicked: injected panic")) {
						t.Fatalf("Open = %v, want the recovered panic", openErr)
					}
					for i := 0; i < 2; i++ {
						if tup, err := nextOrTimeout(t, s); tup != nil || err != openErr {
							t.Errorf("Next after a failed Open = %v, %v; want the Open's error", tup, err)
						}
					}
					s.Close()
					res.check(t, name, s)
				})
			}
		}
	}
}

// Every goroutine of a region passes exchange.worker once before its
// Open, every routed tuple passes exchange.route, every finalized region
// exchange.gather. Failing each shape at the first, a middle and the last
// hit of each leaves nothing behind.
func TestFaultSweepOverStageShapes(t *testing.T) {
	e := newEnv()
	const rows = 3*chunkCap + 7
	tbl := e.table(t, "r", rows)
	boom := errors.New("injected failure")
	defer faultinject.Disable()
	for _, sh := range shapes {
		for _, deg := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s, degree %d", sh.name, deg)
			run := func() (*stage, residue, error) {
				res := e.residue()
				op, s := shapeOp(t, sh.plan(tbl), deg, nil, e.ctx(context.Background()))
				got, err := exec.Collect(op)
				if err == nil && len(got) != rows {
					t.Fatalf("%s: %d rows, want %d", name, len(got), rows)
				}
				return s, res, err
			}
			inj := faultinject.Enable() // a new one: its hit counts start at zero
			s, res, err := run()
			if err != nil {
				t.Fatalf("%s, no fault: %v", name, err)
			}
			res.check(t, name, s)
			if sh.spills != "" && inj.Hits(sh.spills) == 0 {
				t.Errorf("%s: nothing spilled: the check for spill files left behind sees none made", name)
			}

			// leaf: N scans, one region. join: the N scans and the region
			// of the build side below, then the router over them, N joins
			// and N probe scans. agg: the N scans below, the router and N
			// partials, two regions.
			want := map[string]int{"exchange.worker": deg, "exchange.route": 0, "exchange.gather": 1}
			switch sh.name {
			case "join":
				want = map[string]int{"exchange.worker": 3*deg + 1, "exchange.route": 2 * rows, "exchange.gather": 2}
			case "agg":
				want = map[string]int{"exchange.worker": 2*deg + 1, "exchange.route": rows, "exchange.gather": 2}
			}
			for site, hits := range want {
				if got := inj.Hits(site); got != hits {
					t.Errorf("%s: %d hits of %s in a run to the end, want %d", name, got, site, hits)
				}
			}
			for site, hits := range want {
				for _, after := range []int{1, (hits + 1) / 2, hits} {
					if hits == 0 {
						break
					}
					what := fmt.Sprintf("%s, %s failing at hit %d of %d", name, site, after, hits)
					inj.Arm(site, faultinject.Fault{Err: boom, After: after})
					s, res, err := run()
					if !errors.Is(err, boom) || inj.Armed(site) {
						t.Errorf("%s: ended with %v, fault still armed: %v", what, err, inj.Armed(site))
					}
					inj.Disarm(site)
					res.check(t, what, s)
				}
			}
		}
	}
}
