package plan_test

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exchange"
	"repro/internal/plan"
	"repro/internal/reopt"
	"repro/internal/scia"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/types"
)

// A join's schema is resolved once, when the optimizer makes the node.
// The passes that run afterwards re-point a join's children at wrappers —
// scia.Insert puts a statistics collector above one, exchange.Parallelize
// a hash or gather exchange — and Clone copies the node: after all of
// them the memoised schema must still be what concatenating the children
// would give.
func TestJoinSchemaMemoisedSurvivesWrappers(t *testing.T) {
	m := storage.NewCostMeter(storage.DefaultCostWeights())
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(m), 256))
	if err := tpcd.Load(cat, tpcd.Config{SF: 0.002, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	joins, wrapped := 0, map[string]int{}
	for _, q := range tpcd.Queries() {
		stmt, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		res, err := reopt.New(cat, reopt.Config{Mode: reopt.ModeFull, MemBudget: 1 << 20}).Optimize(stmt)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if _, err := scia.Insert(res, scia.DefaultConfig()); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		root := plan.Clone(exchange.Parallelize(res.Root, 2))
		plan.Walk(root, func(n plan.Node) {
			var out, left, right *types.Schema
			switch j := n.(type) {
			case *plan.HashJoin:
				out, left, right = j.Out, j.Build.Schema(), j.Probe.Schema()
			case *plan.IndexJoin:
				out, left, right = j.Out, j.Outer.Schema(), j.InnerOut
			default:
				return
			}
			joins++
			if out == nil {
				t.Fatalf("%s: %s %s has no memoised schema", q.Name, n.Label(), n.Describe())
			}
			if n.Schema() != out {
				t.Errorf("%s: %s: Schema() is not the memoised schema", q.Name, n.Label())
			}
			if want := left.Concat(right); !slices.Equal(out.Columns, want.Columns) {
				t.Errorf("%s: %s %s: memoised schema %v, children now give %v", q.Name, n.Label(), n.Describe(), out, want)
			}
			for _, c := range n.Children() {
				// Parallelize runs last, so its exchanges sit above
				// the collectors SCIA put there.
				for {
					if x, ok := c.(*plan.Exchange); ok {
						wrapped[x.Label()]++
						c = x.Input
						continue
					}
					if _, ok := c.(*plan.Collector); ok {
						wrapped[c.Label()]++
					}
					break
				}
			}
		})
	}
	if joins == 0 || wrapped["statistics-collector"] == 0 || wrapped["exchange"] == 0 {
		t.Errorf("%d joins, wrapped children %v: the passes wrapped nothing to test", joins, wrapped)
	}
}
