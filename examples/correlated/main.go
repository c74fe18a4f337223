// Query plan modification (the paper's Figures 4-6): two correlated
// host-variable predicates make the optimizer's estimate of a filter's
// output wildly low (it multiplies default selectivities under the
// independence assumption — §2.4 footnote 2 names exactly this error).
// The cheap-looking indexed nested-loops join it picks blows up 9x at
// run time; the dispatcher detects this at the first hash join's build
// boundary (Equations 1 and 2), materializes the running join's output
// to a temp table, generates SQL for the remainder of the query, and
// re-submits it — ending up with a hash join instead.
package main

import (
	"fmt"
	"log"

	midquery "repro"
)

func main() {
	db := midquery.Open(midquery.Options{BufferPoolPages: 8192})

	mk := func(name string, rows, fkMod int, index bool) {
		if err := db.CreateTable(name,
			midquery.Column{Name: name + "_pk", Kind: midquery.KindInt, Key: true},
			midquery.Column{Name: name + "_fk", Kind: midquery.KindInt},
			midquery.Column{Name: name + "_grp", Kind: midquery.KindInt},
			midquery.Column{Name: name + "_val", Kind: midquery.KindFloat},
		); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Insert(name, i, i%fkMod, i%10, float64(i%1000)); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Analyze(name, midquery.MaxDiff); err != nil {
			log.Fatal(err)
		}
		if index {
			if err := db.CreateIndex(name, name+"_pk"); err != nil {
				log.Fatal(err)
			}
		}
	}
	mk("rel1", 1350, 4000, false)
	mk("rel2", 4000, 60000, false)
	mk("rel3", 60000, 5, true)

	const query = `
		select rel1_grp, count(*) as cnt
		from rel1, rel2, rel3
		where rel1.rel1_fk = rel2.rel2_pk
		  and rel2.rel2_fk = rel3.rel3_pk
		  and rel1_val < :v1 and rel1_grp < :v2
		group by rel1_grp`

	// Both host variables actually keep every row.
	params := map[string]midquery.Value{
		"v1": midquery.NewFloat(1e9),
		"v2": midquery.NewFloat(1e9),
	}

	fmt.Println("optimizer's plan (the filter estimate is ~1/9 of reality):")
	plan, _ := db.Explain(query, midquery.ExecOptions{Mode: midquery.ReoptPlanOnly, Params: params})
	fmt.Println(plan)

	db.DropCaches()
	normal, err := db.Exec(query, midquery.ExecOptions{Mode: midquery.ReoptOff, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	db.DropCaches()
	// EXPLAIN ANALYZE instruments the run without charging the meter.
	switched, err := db.ExplainAnalyze(query, midquery.ExecOptions{Mode: midquery.ReoptPlanOnly, Params: params})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("normal execution:   %8.0f units\n", normal.Cost)
	fmt.Printf("plan modification:  %8.0f units (%d switch)\n", switched.Cost, switched.Stats.PlanSwitches)
	fmt.Printf("improvement:        %+.1f%%\n", (1-switched.Cost/normal.Cost)*100)
	for _, d := range switched.Stats.Decisions {
		fmt.Println("  " + d.String())
	}
	if switched.Stats.PlanSwitches > 0 {
		fmt.Println("\nplans run (the remainder re-submitted over the temp table last):")
		fmt.Print(switched.Plan)
	}
	if len(normal.Rows) != len(switched.Rows) {
		log.Fatalf("result mismatch: %d vs %d rows", len(normal.Rows), len(switched.Rows))
	}
	fmt.Printf("results identical: %d groups\n", len(normal.Rows))
}
