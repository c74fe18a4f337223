// Parametric / dynamic hybrid — the future work the paper proposes in
// §4: "the query optimizer can try to anticipate the most common cases
// that might arise at run-time and produce a parameterized plan that
// covers these possibilities ... If a situation arises at run-time that
// is not covered ... dynamic re-optimization can be used."
//
// The query's price cutoff is a host variable on the probe side of the
// first join — exactly where mid-query statistics arrive too late for
// Dynamic Re-Optimization to fix a mis-chosen join method. A parametric
// plan prepared across selectivity scenarios picks the right method at
// bind time instead, and re-optimization stays armed for everything the
// scenarios did not anticipate.
package main

import (
	"fmt"
	"log"

	midquery "repro"
)

const query = `
	select l_orderkey, sum(l_extendedprice) as revenue
	from customer, orders, lineitem
	where customer.c_custkey = orders.o_custkey
	  and lineitem.l_orderkey = orders.o_orderkey
	  and o_totalprice < :cap
	group by l_orderkey order by revenue desc limit 10`

func main() {
	db := midquery.Open(midquery.Options{BufferPoolPages: 256})
	fmt.Println("loading TPC-D SF 0.01 (with the lineitem index the scenarios disagree about) ...")
	if err := db.LoadTPCD(midquery.TPCDConfig{SF: 0.01, Seed: 1, FactIndexes: true}); err != nil {
		log.Fatal(err)
	}

	prep, err := db.Prepare(query, midquery.ExecOptions{Mode: midquery.ReoptFull, MemBudget: 2 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nparametric candidates (scenario selectivities -> plan shape):")
	for _, c := range prep.Candidates() {
		fmt.Println("  " + c)
	}

	// :cap = 1040 keeps ~1% of orders; the static optimizer would have
	// assumed 1/3 and planned a full lineitem scan.
	params := map[string]midquery.Value{"cap": midquery.NewFloat(1040)}

	db.DropCaches()
	static, err := db.Exec(query, midquery.ExecOptions{Mode: midquery.ReoptOff, MemBudget: 2 << 20, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	db.DropCaches()
	hybrid, err := prep.Exec(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstatic plan:        %8.0f units\n", static.Cost)
	fmt.Printf("parametric hybrid:  %8.0f units (%+.1f%%)\n",
		hybrid.Cost, (hybrid.Cost/static.Cost-1)*100)
	for _, d := range hybrid.Stats.Decisions {
		fmt.Println("  " + d.String())
	}
	if len(static.Rows) != len(hybrid.Rows) {
		log.Fatalf("result mismatch: %d vs %d rows", len(static.Rows), len(hybrid.Rows))
	}
	fmt.Printf("results identical: %d rows\n", len(hybrid.Rows))
}
