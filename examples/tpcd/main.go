// TPC-D walkthrough: load the paper's benchmark dataset with stale
// catalog statistics (the estimation-error regime of §1) and run the
// complex query Q5 with and without Dynamic Re-Optimization, printing
// the dispatcher's checkpoint decisions — the paper's §2.4 machinery in
// action.
package main

import (
	"fmt"
	"log"

	midquery "repro"
)

func main() {
	db := midquery.Open(midquery.Options{BufferPoolPages: 256})
	fmt.Println("loading TPC-D SF 0.01 with statistics collected at 50% of the load ...")
	if err := db.LoadTPCD(midquery.TPCDConfig{SF: 0.01, Seed: 1, StaleFrac: 0.5}); err != nil {
		log.Fatal(err)
	}

	q := midquery.Q("Q5")
	fmt.Printf("\n%s (%s, %d joins):%s\n", q.Name, q.Class, q.Joins, q.SQL)

	for _, mode := range []struct {
		name string
		m    midquery.Mode
	}{
		{"normal execution", midquery.ReoptOff},
		{"dynamic re-optimization", midquery.ReoptFull},
	} {
		db.DropCaches() // measure cold, like the benchmark harness
		res, err := db.Exec(q.SQL, midquery.ExecOptions{Mode: mode.m, MemBudget: 2 << 20})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s: cost %.0f units, %d rows\n", mode.name, res.Cost, len(res.Rows))
		if mode.m != midquery.ReoptOff {
			fmt.Printf("    collectors=%d reallocs=%d switches=%d\n",
				res.Stats.CollectorsInserted, res.Stats.MemReallocs, res.Stats.PlanSwitches)
			for _, d := range res.Stats.Decisions {
				fmt.Println("    " + d.String())
			}
		}
		for _, row := range res.Rows {
			fmt.Println("    ", row)
		}
	}
}
