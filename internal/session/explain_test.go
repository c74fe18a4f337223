package session

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/reopt"
	"repro/internal/tpcd"
)

// analyzedLine matches one operator line of an EXPLAIN ANALYZE rendering:
// its label, its description, and either its actual rows or "never
// executed".
var analyzedLine = regexp.MustCompile(`^\s+(\S+) \[(.*?)\] \(est .*?\) \((?:actual rows=(\d+)|never executed)`)

// q3SQL returns the text of TPC-D Q3.
func q3SQL(t *testing.T) string {
	t.Helper()
	q, err := tpcd.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	return q.SQL
}

// TestExplainAnalyzeRowsMatchProgress: EXPLAIN ANALYZE and the query's
// live-progress record count the same rows for every operator of a
// serial Q3.
func TestExplainAnalyzeRowsMatchProgress(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	res, err := m.Session().Exec(context.Background(), q3SQL(t), Options{Mode: reopt.ModeFull, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanSwitches != 0 {
		t.Fatalf("Q3 switched plans %d times; one plan keeps the rendering in registration order", res.Stats.PlanSwitches)
	}
	p := m.Progress().Get(res.Query)
	if p == nil {
		t.Fatalf("no progress record for %s", res.Query)
	}
	ops := p.Snapshot(true).Operators
	var lines []string
	for _, line := range strings.Split(res.Plan, "\n") {
		if !strings.HasPrefix(line, "plan ") && line != "" {
			lines = append(lines, line)
		}
	}
	if len(lines) != len(ops) || len(ops) == 0 {
		t.Fatalf("EXPLAIN ANALYZE renders %d operators, progress holds %d:\n%s", len(lines), len(ops), res.Plan)
	}
	for i, line := range lines {
		sm := analyzedLine.FindStringSubmatch(line)
		if sm == nil {
			t.Fatalf("unparsed EXPLAIN ANALYZE line: %s", line)
		}
		op := ops[i]
		if sm[1] != op.Label || sm[2] != op.Detail {
			t.Fatalf("line %d renders %s [%s], progress operator %d is %s [%s]", i, sm[1], sm[2], op.ID, op.Label, op.Detail)
		}
		var rows int64
		if sm[3] != "" {
			if rows, err = strconv.ParseInt(sm[3], 10, 64); err != nil {
				t.Fatal(err)
			}
		}
		if rows != op.Rows {
			t.Errorf("%s [%s]: EXPLAIN ANALYZE says %d rows, progress says %d", op.Label, op.Detail, rows, op.Rows)
		}
	}
}

// TestParallelOperatorsAllRun: every operator of a parallel plan runs.
// After each TPC-D query at degrees 2 and 4, every operator in the
// query's progress record reads done — none is a node the executor
// never reaches.
func TestParallelOperatorsAllRun(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	for _, q := range tpcd.Queries() {
		for _, degree := range []int{2, 4} {
			res, err := m.Session().Exec(context.Background(), q.SQL, Options{Mode: reopt.ModeOff, Parallel: degree})
			if err != nil {
				t.Fatalf("%s at degree %d: %v", q.Name, degree, err)
			}
			p := m.Progress().Get(res.Query)
			if p == nil {
				t.Fatalf("%s at degree %d: no progress record", q.Name, degree)
			}
			ops := p.Snapshot(true).Operators
			if len(ops) == 0 {
				t.Fatalf("%s at degree %d: the progress record holds no operator", q.Name, degree)
			}
			for _, op := range ops {
				if op.State != "done" {
					t.Errorf("%s at degree %d: %s [%s] is %s", q.Name, degree, op.Label, op.Detail, op.State)
				}
			}
		}
	}
}

// TestParallelWorkersCountTheGathers: Stats.WorkersSpawned counts every
// goroutine the query's exchange regions started, exactly. Each gather
// of the progress record's plan starts N workers over a leaf segment,
// N workers, the build router and N probe producers over a hash join,
// and N partial aggregations and their router under an aggregation.
func TestParallelWorkersCountTheGathers(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	for _, q := range tpcd.Queries() {
		for _, n := range []int{2, 4} {
			res, err := m.Session().Exec(context.Background(), q.SQL, Options{Mode: reopt.ModeOff, Parallel: n})
			if err != nil {
				t.Fatalf("%s at degree %d: %v", q.Name, n, err)
			}
			ops := m.Progress().Get(res.Query).Snapshot(true).Operators
			want := 0
			for i, op := range ops {
				if op.Label != "exchange" {
					continue
				}
				j := i + 1
				for ops[j].Label == "statistics-collector" || ops[j].Label == "filter" {
					j++
				}
				switch ops[j].Label {
				case "hash-join":
					want += 2*n + 1
				case "aggregate":
					want += n + 1
				default:
					want += n
				}
			}
			if want == 0 || res.Stats.WorkersSpawned != want {
				t.Errorf("%s at degree %d: %d workers spawned, want %d", q.Name, n, res.Stats.WorkersSpawned, want)
			}
		}
	}
}

// TestExplainAnalyzeWithoutProgress: NoProgress keeps a query out of the
// progress registry, and EXPLAIN ANALYZE still renders its actuals.
func TestExplainAnalyzeWithoutProgress(t *testing.T) {
	_, m := newTPCDManager(t, Config{})
	res, err := m.Session().Exec(context.Background(), q3SQL(t),
		Options{Mode: reopt.ModeFull, Explain: true, NoProgress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "actual rows=") {
		t.Errorf("EXPLAIN ANALYZE under NoProgress rendered no actuals:\n%s", res.Plan)
	}
	if p := m.Progress().Get(res.Query); p != nil {
		t.Errorf("NoProgress query %s is in the progress registry", res.Query)
	}
}
