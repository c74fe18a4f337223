package reopt

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// spliceEnv is the Figure-6 fixture: a 9x under-estimate on rel1 makes
// the planned index join into rel3 blow up, triggering a plan switch at
// the first checkpoint.
func spliceEnv(t *testing.T) (*env, string, plan.Params) {
	t.Helper()
	e := newEnv(8192)
	e.addTable(t, "rel1", 1350, 4000, 10)
	e.addTable(t, "rel2", 4000, 60000, 5)
	e.addTable(t, "rel3", 60000, 5, 5)
	e.analyzeAll(t)
	e.cat.CreateIndex("rel3", "rel3_pk")
	src := `select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		and rel1_val < :v1 and rel1_grp < :v2 group by rel1_grp`
	return e, src, plan.Params{"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9)}
}

func runStrategy(t *testing.T, e *env, src string, params plan.Params, s Strategy) ([]types.Tuple, *Stats, float64) {
	t.Helper()
	cfg := DefaultConfig(ModePlanOnly)
	cfg.Strategy = s
	d := New(e.cat, cfg)
	before := e.m.Snapshot()
	rows, st, err := d.RunSQL(src, params, e.ctx(params))
	if err != nil {
		t.Fatalf("strategy %v: %v", s, err)
	}
	return rows, st, e.m.Snapshot().Sub(before).Cost()
}

func TestSpliceSwitchesWithoutMaterializing(t *testing.T) {
	e, src, params := spliceEnv(t)
	matRows, matSt, matCost := runStrategy(t, e, src, params, StrategyMaterialize)
	if matSt.PlanSwitches == 0 {
		t.Fatal("fixture no longer triggers a switch")
	}

	e2, src, params := spliceEnv(t)
	spRows, spSt, spCost := runStrategy(t, e2, src, params, StrategySplice)
	if spSt.PlanSwitches == 0 {
		t.Fatal("splice strategy did not switch")
	}
	rowsEqual(t, "splice vs materialize", spRows, matRows)

	spliced := false
	for _, d := range spSt.Decisions {
		spliced = spliced || d.Switched() && d.Via == StrategySplice
	}
	if !spliced {
		t.Fatalf("splice fell back to materialization: %v", spSt.Decisions)
	}
	// Figure 5 vs Figure 6: the splice saves the temp write+read.
	if spCost >= matCost {
		t.Errorf("splice cost %.0f not below materialize cost %.0f", spCost, matCost)
	}
	// No temp tables left behind.
	for _, name := range e2.cat.Tables() {
		if strings.HasPrefix(name, "mqr_") {
			t.Errorf("leftover temp table %s", name)
		}
	}
}

func TestSpliceResultsMatchOff(t *testing.T) {
	e, src, params := spliceEnv(t)
	want, _, _ := runMode(t, e, ModeOff, src, params, 0)
	e2, src, params := spliceEnv(t)
	got, _, _ := runStrategy(t, e2, src, params, StrategySplice)
	rowsEqual(t, "splice vs off", got, want)
}

func TestStrategyString(t *testing.T) {
	if StrategyMaterialize.String() != "materialize" || StrategySplice.String() != "splice" {
		t.Error("strategy names")
	}
}

// Every relation set a run records counts exactly that set's rows: the
// checkpoints of the plan the query started from, the switch's
// materialized temp, and the checkpoints of the remainder plan, whose
// temp maps back to the relations it holds. Each set's rows are checked
// against a count over the same relations and predicates.
func TestObservedRowsArePerRelationSet(t *testing.T) {
	where := map[uint32]string{
		0b001: "from rel1 where rel1_val < :v1 and rel1_grp < :v2",
		0b010: "from rel2",
		0b100: "from rel3",
		0b011: "from rel1, rel2 where rel1.rel1_fk = rel2.rel2_pk and rel1_val < :v1 and rel1_grp < :v2",
		0b110: "from rel2, rel3 where rel2.rel2_fk = rel3.rel3_pk",
		0b111: `from rel1, rel2, rel3 where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
			and rel1_val < :v1 and rel1_grp < :v2`,
	}
	for _, s := range []Strategy{StrategyMaterialize, StrategySplice} {
		e, src, params := spliceEnv(t)
		_, st, _ := runStrategy(t, e, src, params, s)
		obs := st.Observed()
		mat := false
		for _, d := range st.Decisions {
			mat = mat || d.MatRels != 0
		}
		if len(obs) < 2 || mat != (s == StrategyMaterialize) {
			t.Fatalf("%v: observed %v, materialized %v; decisions %v", s, obs, mat, st.Decisions)
		}
		for set, rows := range obs {
			q, ok := where[set]
			if !ok {
				t.Fatalf("%v: observed set %03b is not one of the query's relation sets", s, set)
			}
			got, _, err := New(e.cat, DefaultConfig(ModeOff)).RunSQL("select count(*) as n "+q, params, e.ctx(params))
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(got[0][0].Int()); rows != want {
				t.Errorf("%v: set %03b observed %v rows, it has %v", s, set, rows, want)
			}
		}
	}
}
