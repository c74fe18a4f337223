package session

import (
	"context"
	"testing"
	"time"

	"repro/internal/reopt"
	"repro/internal/types"
)

// col returns the index of a named column in a result, failing the test
// if the query did not produce it.
func col(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, c := range res.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("result has no column %q (columns %v)", name, res.Columns)
	return -1
}

// poll runs an introspection query without registering itself in the
// progress registry, so tests observing mqr.queries do not see their
// own probes.
func poll(t *testing.T, s *Session, src string) *Result {
	t.Helper()
	res, err := s.Exec(context.Background(), src, Options{NoProgress: true})
	if err != nil {
		t.Fatalf("introspection query %q: %v", src, err)
	}
	return res
}

func TestSystemTablesQueryable(t *testing.T) {
	db := newTestDB(1024)
	db.addTable(t, "a", 2000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	m := db.manager(Config{})
	s := m.Session()

	res, err := s.Exec(context.Background(), joinQuery, Options{
		Mode:   reopt.ModeFull,
		Params: map[string]types.Value{"cut": types.NewFloat(500)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// mqr.queries lists the finished query from the recent ring with its
	// terminal state frozen.
	qs := poll(t, m.Session(), "select * from mqr.queries")
	iq, is, ifr, ic := col(t, qs, "query"), col(t, qs, "state"), col(t, qs, "fraction"), col(t, qs, "cost")
	var found bool
	for _, row := range qs.Rows {
		if row[iq].Str() != res.Query {
			continue
		}
		found = true
		if st := row[is].Str(); st != "done" {
			t.Errorf("finished query state = %q, want done", st)
		}
		if f := row[ifr].Float(); f != 1 {
			t.Errorf("finished query fraction = %v, want 1", f)
		}
		if c := row[ic].Float(); c <= 0 {
			t.Errorf("finished query cost = %v, want > 0", c)
		}
	}
	if !found {
		t.Fatalf("mqr.queries has no row for %s: %v", res.Query, qs.Rows)
	}

	// A query that does not opt out of progress tracking sees itself
	// running in mqr.queries.
	self, err := m.Session().Exec(context.Background(),
		"select query, state from mqr.queries", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sawSelf bool
	for _, row := range self.Rows {
		if row[0].Str() == self.Query && row[1].Str() == "running" {
			sawSelf = true
		}
	}
	if !sawSelf {
		t.Errorf("introspection query %s does not see itself running: %v", self.Query, self.Rows)
	}

	// mqr.operators exposes the finished query's plan with live row
	// counts; at least one operator produced output.
	ops := poll(t, m.Session(), "select query, label, rows, state from mqr.operators")
	var opRows, produced int
	for _, row := range ops.Rows {
		if row[0].Str() != res.Query {
			continue
		}
		opRows++
		if row[1].Str() == "" {
			t.Error("operator row with empty label")
		}
		if row[2].Int() > 0 {
			produced++
		}
		if st := row[3].Str(); st != "done" {
			t.Errorf("operator state = %q after query finished", st)
		}
	}
	if opRows == 0 || produced == 0 {
		t.Fatalf("mqr.operators: %d rows for %s, %d with output", opRows, res.Query, produced)
	}

	// mqr.metrics carries the whole registry, including the live gauges.
	mets := poll(t, m.Session(), "select name, type, value from mqr.metrics")
	want := map[string]bool{
		"reopt_live_suboptimality": false,
		"mqr_live_queries":         false,
		"mqr_queries_total":        false,
	}
	for _, row := range mets.Rows {
		if _, ok := want[row[0].Str()]; ok {
			want[row[0].Str()] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("mqr.metrics missing %s", name)
		}
	}

	// mqr.trace carries the always-on tee, stamped with the query tag.
	trc := poll(t, m.Session(), "select seq, query, kind, msg, dropped from mqr.trace")
	var traced bool
	for _, row := range trc.Rows {
		if row[1].Str() == res.Query {
			traced = true
		}
		if d := row[4].Int(); d < 0 {
			t.Errorf("negative dropped count %d", d)
		}
	}
	if !traced {
		t.Errorf("mqr.trace has no events for %s", res.Query)
	}

	// mqr.txns reflects an open write transaction from another session.
	writer := m.Session()
	if _, err := writer.Exec(context.Background(), "begin", Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(context.Background(),
		"insert into a (a_pk, a_fk, a_grp, a_val) values (100001, 1, 1, 1.0)", Options{}); err != nil {
		t.Fatal(err)
	}
	txns := poll(t, m.Session(), "select txn, kind, writes from mqr.txns")
	var sawWriter bool
	for _, row := range txns.Rows {
		if row[1].Str() == "write" && row[2].Int() >= 1 {
			sawWriter = true
		}
	}
	if !sawWriter {
		t.Errorf("mqr.txns missing the open write transaction: %v", txns.Rows)
	}
	if _, err := writer.Exec(context.Background(), "rollback", Options{}); err != nil {
		t.Fatal(err)
	}

	// System tables are read-only: DML against them must fail.
	if _, err := m.Session().Exec(context.Background(),
		"insert into mqr.metrics (name, type, value) values ('x', 'gauge', 1.0)", Options{}); err == nil {
		t.Fatal("insert into a system table succeeded")
	}

	// The plan cache works over virtual tables, and a cached plan still
	// reads fresh provider state.
	first := poll(t, m.Session(), "select query from mqr.queries")
	second := poll(t, m.Session(), "select query from mqr.queries")
	if !second.CacheHit {
		t.Error("second mqr.queries scan missed the plan cache")
	}
	if len(first.Rows) == 0 || len(second.Rows) == 0 {
		t.Errorf("cached virtual scan returned no rows: %d then %d", len(first.Rows), len(second.Rows))
	}
}

// A run that starts from a fed-back plan says so in mqr.queries, and the
// re-plan that produced it counts in plancache_feedbacks_total.
func TestFedBackIntrospection(t *testing.T) {
	db := newStaleDB(t)
	m := db.manager(Config{})
	var tags []string
	for i := 0; i < 2; i++ {
		res, err := m.Session().Exec(context.Background(), staleJoin, Options{Mode: reopt.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, res.Query)
	}
	qs := poll(t, m.Session(), "select query, fed_back from mqr.queries")
	fed := map[string]int64{}
	for _, row := range qs.Rows {
		fed[row[0].Str()] = row[1].Int()
	}
	if fed[tags[0]] != 0 || fed[tags[1]] != 1 {
		t.Errorf("fed_back: %s=%d, %s=%d; want 0 for the run of estimates, 1 for the fed-back one",
			tags[0], fed[tags[0]], tags[1], fed[tags[1]])
	}
	mets := poll(t, m.Session(), "select name, value from mqr.metrics")
	var feedbacks float64 = -1
	for _, row := range mets.Rows {
		if row[0].Str() == "plancache_feedbacks_total" {
			feedbacks = row[1].Float()
		}
	}
	if feedbacks != 1 {
		t.Errorf("plancache_feedbacks_total = %v, want 1", feedbacks)
	}
}

// TestLiveProgressVisibleFromSecondSession is the acceptance test for
// the live path: while session A is paused at its checkpoints, session
// B's SELECT over mqr.queries sees A's in-flight query with a nonzero,
// monotonically advancing fraction, and mqr.operators shows A's
// operators producing rows.
func TestLiveProgressVisibleFromSecondSession(t *testing.T) {
	db := newTestDB(2048)
	db.addTable(t, "a", 5000, 500, 10)
	db.addTable(t, "b", 500, 50, 5)
	db.addTable(t, "c", 50, 5, 5)
	m := db.manager(Config{})

	ckpt := make(chan int)
	release := make(chan struct{})
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := m.Session().Exec(context.Background(),
			`select a_grp, count(*) as cnt from a, b, c
			 where a.a_fk = b.b_pk and b.b_fk = c.c_pk group by a_grp`,
			Options{
				Mode:    reopt.ModeFull,
				NoCache: true,
				CheckpointHook: func(step int) {
					ckpt <- step
					<-release
				},
			})
		done <- outcome{res, err}
	}()

	// First checkpoint: capture A's tag while it is the only running
	// query, then observe it from a second session.
	select {
	case <-ckpt:
	case <-time.After(30 * time.Second):
		t.Fatal("query never reached a checkpoint")
	}
	running := m.Running()
	if len(running) != 1 {
		t.Fatalf("running queries = %v, want exactly one", running)
	}
	tagA := running[0]

	b := m.Session()
	fractionOf := func() (float64, string, bool) {
		res := poll(t, b, "select query, state, fraction from mqr.queries")
		for _, row := range res.Rows {
			if row[0].Str() == tagA {
				return row[2].Float(), row[1].Str(), true
			}
		}
		return 0, "", false
	}

	f1, state, ok := fractionOf()
	if !ok {
		t.Fatalf("second session does not see %s in mqr.queries", tagA)
	}
	if state != "running" {
		t.Errorf("state = %q, want running", state)
	}
	if f1 <= 0 {
		t.Errorf("fraction at first checkpoint = %v, want > 0", f1)
	}
	if f1 >= 1 {
		t.Errorf("fraction at first checkpoint = %v, want < 1", f1)
	}

	// A's operators are visible mid-flight with nonzero row counts.
	ops := poll(t, b, "select query, rows from mqr.operators")
	var live int
	for _, row := range ops.Rows {
		if row[0].Str() == tagA && row[1].Int() > 0 {
			live++
		}
	}
	if live == 0 {
		t.Errorf("no operator of %s has produced rows at the first checkpoint", tagA)
	}

	// Drive the query through its remaining checkpoints, checking the
	// fraction never regresses and advances at least once before the
	// final (fraction = 1) observation.
	prev, advanced := f1, false
	release <- struct{}{}
	for {
		select {
		case <-ckpt:
			f, _, ok := fractionOf()
			if ok {
				if f < prev {
					t.Fatalf("fraction regressed: %v after %v", f, prev)
				}
				if f > prev {
					advanced = true
				}
				prev = f
			}
			release <- struct{}{}
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			f, state, ok := fractionOf()
			if !ok {
				t.Fatal("finished query fell out of mqr.queries")
			}
			if state != "done" || f != 1 {
				t.Fatalf("final state %q fraction %v, want done/1", state, f)
			}
			if f > prev {
				advanced = true
			}
			if !advanced {
				t.Fatalf("fraction never advanced past %v", f1)
			}
			return
		case <-time.After(30 * time.Second):
			t.Fatal("query stalled between checkpoints")
		}
	}
}

// TestScoreRisesBeforeForcedSwitch pins the continuous suboptimality
// signal: on the Figure 6 mis-estimated join, the score (and the
// reopt_live_suboptimality gauge) exceeds 1 at a checkpoint *before*
// the forced-θ thresholds have switched the plan.
func TestScoreRisesBeforeForcedSwitch(t *testing.T) {
	db := newTestDB(8192)
	db.addTable(t, "rel1", 1350, 4000, 10)
	db.addTable(t, "rel2", 4000, 60000, 5)
	db.addTable(t, "rel3", 60000, 5, 5)
	if err := db.cat.CreateIndex("rel3", "rel3_pk"); err != nil {
		t.Fatal(err)
	}
	m := db.manager(Config{})

	type sample struct {
		score    float64
		gauge    float64
		switches int64
	}
	var samples []sample
	hook := func(step int) {
		tags := m.Running()
		if len(tags) != 1 {
			return
		}
		p := m.Progress().Get(tags[0])
		if p == nil {
			return
		}
		var gauge float64
		for _, smp := range m.Registry().Samples() {
			if smp.Name == "reopt_live_suboptimality" {
				gauge = smp.Value
			}
		}
		samples = append(samples, sample{score: p.Score(), gauge: gauge, switches: p.Switches()})
	}

	res, err := m.Session().Exec(context.Background(),
		`select rel1_grp, count(*) as cnt from rel1, rel2, rel3
		 where rel1.rel1_fk = rel2.rel2_pk and rel2.rel2_fk = rel3.rel3_pk
		 and rel1_val < :v1 and rel1_grp < :v2 group by rel1_grp`,
		Options{
			Mode:    reopt.ModePlanOnly,
			NoCache: true,
			Params: map[string]types.Value{
				"v1": types.NewFloat(1e9), "v2": types.NewFloat(1e9),
			},
			// Forced thresholds: θ₁ enormous keeps Eq.1 in its
			// inaccuracy band, θ₂ near zero accepts any cheaper plan.
			Theta1:         1e9,
			Theta2:         1e-9,
			CheckpointHook: hook,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanSwitches == 0 {
		t.Fatal("forced thresholds produced no plan switch")
	}
	if len(samples) == 0 {
		t.Fatal("checkpoint hook never fired")
	}

	// The signal must have risen before the first switch was recorded:
	// some pre-switch checkpoint saw score > 1, and the gauge agreed.
	var rose bool
	for _, s := range samples {
		if s.switches == 0 && s.score > 1 {
			rose = true
			if s.gauge <= 1 {
				t.Errorf("score %v but gauge %v at a pre-switch checkpoint", s.score, s.gauge)
			}
		}
	}
	if !rose {
		t.Fatalf("suboptimality score never exceeded 1 before the switch: %+v", samples)
	}

	// The finished query's snapshot keeps the history.
	p := m.Progress().Get(res.Query)
	if p == nil {
		t.Fatal("finished query missing from progress registry")
	}
	snap := p.Snapshot(false)
	if snap.Checkpoints < 1 || snap.Switches < 1 {
		t.Fatalf("snapshot checkpoints=%d switches=%d, want >=1 each", snap.Checkpoints, snap.Switches)
	}
	if snap.Score <= 1 {
		t.Errorf("final score = %v, want > 1 on a 9x mis-estimate", snap.Score)
	}
}
