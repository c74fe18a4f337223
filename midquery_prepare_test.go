package midquery

import (
	"testing"

	"repro/internal/reopt"
)

const hybridTestQuery = `
	select l_orderkey, sum(l_extendedprice) as revenue
	from customer, orders, lineitem
	where customer.c_custkey = orders.o_custkey
	  and lineitem.l_orderkey = orders.o_orderkey
	  and o_totalprice < :cap
	group by l_orderkey order by revenue desc limit 10`

func TestPrepareCandidatesAndExec(t *testing.T) {
	db := Open(Options{BufferPoolPages: 256})
	if err := db.LoadTPCD(TPCDConfig{SF: 0.005, Seed: 2, FactIndexes: true}); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(hybridTestQuery, ExecOptions{Mode: ReoptFull, MemBudget: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cands := prep.Candidates()
	if len(cands) < 2 {
		t.Fatalf("candidates = %v, want at least 2 shapes", cands)
	}

	params := map[string]Value{"cap": NewFloat(1040)}
	db.DropCaches()
	static, err := db.Exec(hybridTestQuery, ExecOptions{Mode: ReoptOff, MemBudget: 2 << 20, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	db.DropCaches()
	hybrid, err := prep.Exec(params)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "prepared", hybrid.Rows, static.Rows)
	if ds := hybrid.Stats.Decisions; len(ds) == 0 || ds[0].Cause != reopt.CauseParametric || ds[0].Step != -1 {
		t.Errorf("decision log missing parametric choice: %v", ds)
	}
	if hybrid.Cost >= static.Cost {
		t.Errorf("hybrid %.0f did not beat static %.0f on an anticipated selective binding",
			hybrid.Cost, static.Cost)
	}
}

func TestPrepareRepeatedExecutions(t *testing.T) {
	db := Open(Options{BufferPoolPages: 256})
	if err := db.LoadTPCD(TPCDConfig{SF: 0.002, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(
		"select count(*) as n from orders where o_totalprice < :cap",
		ExecOptions{Mode: ReoptFull},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Each execution re-chooses; different bindings give different
	// counts, and a Prepared is reusable.
	lo, err := prep.Exec(map[string]Value{"cap": NewFloat(1100)})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := prep.Exec(map[string]Value{"cap": NewFloat(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Rows[0][0].Int() >= hi.Rows[0][0].Int() {
		t.Errorf("selective binding count %v >= keep-all count %v", lo.Rows[0][0], hi.Rows[0][0])
	}
}

func TestPrepareBadSQL(t *testing.T) {
	db := Open(Options{})
	if _, err := db.Prepare("select broken from", ExecOptions{}); err == nil {
		t.Error("Prepare of bad SQL succeeded")
	}
	if _, err := db.Prepare("select x from missing_table", ExecOptions{}); err == nil {
		t.Error("Prepare over missing table succeeded")
	}
}
