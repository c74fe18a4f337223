package bench

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/tpcd"
)

// TestTopEstimatesFollowTheirInputs: once Q3's first checkpoint has
// scaled its join estimates, the operators above the joins are
// re-derived from their inputs: the Limit keeps at most its N rows, and
// the Project and the Sort carry their input's rows.
func TestTopEstimatesFollowTheirInputs(t *testing.T) {
	cfg := Default()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var q3 tpcd.Query
	for _, q := range tpcd.Queries() {
		if q.Name == "Q3" {
			q3 = q
		}
	}
	rc := reopt.DefaultConfig(reopt.ModeFull)
	rc.MemBudget, rc.PoolPages = cfg.MemBudget, float64(cfg.PoolPages)
	var root plan.Node
	checked := false
	rc.CheckpointHook = func(step int) {
		if step != 1 {
			return // the hook runs before a checkpoint: step 1 sees step 0's
		}
		checked = true
		for n := root; ; {
			e := n.Est()
			switch x := n.(type) {
			case *plan.Limit:
				if e.Rows > float64(x.N) {
					t.Errorf("limit [%d] estimates %.0f rows", x.N, e.Rows)
				}
				n = x.Input
				continue
			case *plan.Sort:
				if in := x.Input.Est().Rows; e.Rows != in {
					t.Errorf("sort estimates %.0f rows over an input of %.0f", e.Rows, in)
				}
				n = x.Input
				continue
			case *plan.Project:
				if in := x.Input.Est().Rows; e.Rows != in {
					t.Errorf("project estimates %.0f rows over an input of %.0f", e.Rows, in)
				}
				n = x.Input
				continue
			}
			return
		}
	}
	d := reopt.New(env.Cat, rc)
	stmt, err := sql.Parse(q3.SQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	root = res.Root
	ctx := &exec.Ctx{Pool: env.Pool, Meter: env.Meter, Params: plan.Params{}}
	if _, _, err := d.RunPlan(res, plan.Params{}, ctx); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("Q3 reached no second checkpoint")
	}
}

// TestReallocationsCountMovedGrants: every checkpoint with a memory
// operator left re-runs the Memory Manager, but only one that moved a
// grant counts as a re-allocation. Q3's improved estimates leave every
// grant where it was; Q5's move at least one.
func TestReallocationsCountMovedGrants(t *testing.T) {
	env, err := NewEnv(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q3", "Q5"} {
		q, err := tpcd.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Exec(q.SQL, session.Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		st, moved := res.Stats, 0
		for _, d := range st.Decisions {
			if d.Moved > 0 {
				moved++
			}
			if name == "Q3" && (!d.Realloc || d.Moved != 0) {
				t.Errorf("Q3: %+v: want the Memory Manager re-run and no grant moved", d)
			}
		}
		if st.MemReallocs != moved {
			t.Errorf("%s: MemReallocs %d, %d records moved a grant", name, st.MemReallocs, moved)
		}
		if name == "Q3" && (len(st.Decisions) == 0 || moved != 0) || name == "Q5" && moved < 1 {
			t.Errorf("%s: %d of %d records moved a grant: %v", name, moved, len(st.Decisions), st.Decisions)
		}
	}
}
