package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/types"
)

// ConfigInterleaved names the interleaved writer/reader schedule in
// verdicts and seed files. It is not part of the static matrix because
// it commits writes: it must run after every read-only configuration,
// and a replay rebuilds the environment from scratch (see Check).
const ConfigInterleaved = "interleaved"

// writeOp is one statement of the seed-derived write schedule: the SQL
// the engine executes and the equivalent naive mutation of the
// reference tables. apply returns how many rows the statement touched
// so the engine's RowsAffected can be differentially checked.
type writeOp struct {
	sql   string
	apply func() int64
}

// writeOps derives the case's write schedule: a few multi-row inserts
// with fresh keys, predicate deletes, and predicate updates against the
// joined tables, then keyWriteOps. The same seed always yields the same schedule, and
// apply replays it serially against the in-memory reference rows — the
// serializable oracle the committed engine state must match.
func (e *Env) writeOps() []writeOp {
	r := rand.New(rand.NewSource(e.Case.Seed ^ 0x317e5eed))
	k := e.Case.JoinK
	nextPK := make([]int64, k)
	for i := 0; i < k; i++ {
		nextPK[i] = int64(len(e.Tables[i].Rows))
	}
	nOps := 2 + r.Intn(3)
	var ops []writeOp
	for n := 0; n < nOps; n++ {
		ti := r.Intn(k)
		td := &e.Tables[ti]
		name := td.Name
		switch r.Intn(3) {
		case 0: // multi-row insert extending the pk domain
			m := 3 + r.Intn(30)
			var vals []string
			var rows []types.Tuple
			for j := 0; j < m; j++ {
				pk := nextPK[ti]
				nextPK[ti]++
				fk := int64(r.Intn(len(td.Rows) + m))
				grp := int64(r.Intn(10))
				val := float64(r.Intn(1000))
				vals = append(vals, fmt.Sprintf("(%d, %d, %d, %.1f)", pk, fk, grp, val))
				rows = append(rows, types.Tuple{
					types.NewInt(pk), types.NewInt(fk), types.NewInt(grp), types.NewFloat(val),
				})
			}
			sql := fmt.Sprintf("insert into %s (%s_pk, %s_fk, %s_grp, %s_val) values %s",
				name, name, name, name, name, strings.Join(vals, ", "))
			ops = append(ops, writeOp{sql, func() int64 {
				td.Rows = append(td.Rows, rows...)
				return int64(len(rows))
			}})
		case 1: // predicate delete
			cut := float64(r.Intn(400))
			sql := fmt.Sprintf("delete from %s where %s_val < %.1f", name, name, cut)
			ops = append(ops, writeOp{sql, func() int64 {
				var kept []types.Tuple
				var removed int64
				for _, row := range td.Rows {
					if row[3].Float() < cut {
						removed++
						continue
					}
					kept = append(kept, row)
				}
				td.Rows = kept
				return removed
			}})
		default: // predicate update
			g := int64(r.Intn(10))
			v := float64(r.Intn(1000))
			sql := fmt.Sprintf("update %s set %s_val = %.1f where %s_grp = %d",
				name, name, v, name, g)
			ops = append(ops, writeOp{sql, func() int64 {
				var touched int64
				for _, row := range td.Rows {
					if row[2].Int() == g {
						row[3] = types.NewFloat(v)
						touched++
					}
				}
				return touched
			}})
		}
	}
	return append(ops, e.keyWriteOps(nextPK)...)
}

// keyWriteOps derives, from a stream of its own, a primary-key equality
// UPDATE and a primary-key range DELETE on the first indexed table of
// the join, the statements that read their target through its index;
// none when no joined table is indexed. nextPK bounds the keys the
// schedule before them can have made.
func (e *Env) keyWriteOps(nextPK []int64) []writeOp {
	r := rand.New(rand.NewSource(e.Case.Seed ^ 0x6b65797772))
	for ti := range nextPK {
		td := &e.Tables[ti]
		if !td.Indexed {
			continue
		}
		name := td.Name
		pk := int64(r.Int63n(nextPK[ti]))
		v := float64(r.Intn(1000))
		lo := int64(r.Int63n(nextPK[ti]))
		hi := lo + 1 + int64(r.Intn(len(td.Rows)/4+1))
		return []writeOp{
			{fmt.Sprintf("update %s set %s_val = %.1f where %s_pk = %d", name, name, v, name, pk), func() int64 {
				var touched int64
				for _, row := range td.Rows {
					if row[0].Int() == pk {
						row[3] = types.NewFloat(v)
						touched++
					}
				}
				return touched
			}},
			{fmt.Sprintf("delete from %s where %s_pk >= %d and %s_pk < %d", name, name, lo, name, hi), func() int64 {
				kept := td.Rows[:0:0]
				for _, row := range td.Rows {
					if pk := row[0].Int(); pk < lo || pk >= hi {
						kept = append(kept, row)
					}
				}
				removed := int64(len(td.Rows) - len(kept))
				td.Rows = kept
				return removed
			}},
		}
	}
	return nil
}

// indexResidue checks that every index holds exactly one entry per
// record its heap holds: once vacuum has swept every dead version, the
// entries of swept versions and of rolled-back inserts must be gone.
func (e *Env) indexResidue() string {
	for _, td := range e.Tables {
		t, err := e.Cat.Table(td.Name)
		if err != nil {
			return err.Error()
		}
		for col, idx := range t.Indexes {
			if n, live := idx.Tree.Len(), t.Heap.NumTuples(); n != live {
				return fmt.Sprintf("index on %s.%s holds %d entries for %d records",
					td.Name, t.Schema.Columns[col].Name, n, live)
			}
		}
	}
	return ""
}

// heapSlackPages is how far a base table in steady state may outgrow
// its vacuumed size: the tail page, and a page of space lost to records
// that did not fit the holes exactly.
const heapSlackPages = 2

// tablePages returns each base table's heap page count, in Tables order.
func (e *Env) tablePages() []int {
	pages := make([]int, len(e.Tables))
	for i, td := range e.Tables {
		if t, err := e.Cat.Table(td.Name); err == nil {
			pages[i] = t.Heap.NumPages()
		}
	}
	return pages
}

// runInterleaved executes the case's write schedule interleaved with
// readers and checks snapshot isolation differentially:
//
//  1. With the whole schedule applied but uncommitted, and again after
//     its rollback, a reader must still see the original reference
//     answer.
//  2. A reader whose query is in flight when the schedule commits (via
//     the checkpoint hook) must also still see the original answer —
//     its snapshot predates the commit.
//  3. A fresh reader after the commit must see the answer the naive
//     reference computes over the serially-mutated rows, and each
//     statement's RowsAffected must match the reference's count.
//  4. Vacuum must reclaim every dead version once no snapshot pins
//     them, and the usual residue invariants (no temp tables, broker
//     repaid, no running queries) must hold.
//  5. Vacuum must also have made the dead versions' space reusable: the
//     schedule run once more (and rolled back) must fit into it, leaving
//     every base table within heapSlackPages of its size after phase 4.
//
// After phases 4 and 5 every index must hold one entry per record its
// heap holds (indexResidue).
//
// It must run LAST for its case: the committed writes move the data
// away from the reference answer every other configuration checks.
func runInterleaved(env *Env) (string, *Failure) {
	rc := RunConfig{Name: ConfigInterleaved, Mode: reopt.ModeFull, Degree: 1, Budget: bigBudget}
	fail := func(format string, args ...any) (string, *Failure) {
		msg := fmt.Sprintf(format, args...)
		return fmt.Sprintf("%s: FAIL %s", rc.Name, msg),
			&Failure{Case: env.Case, Config: rc, Err: msg}
	}

	books := openLedger(env)
	mgr := newManager(env, bigBudget)
	ctx := context.Background()
	exec := func(s *session.Session, q string, opts session.Options) (*session.Result, error) {
		res, err := s.Exec(ctx, q, opts)
		books.note(res, err)
		return res, err
	}
	ops := env.writeOps()
	readOpts := session.Options{Mode: reopt.ModeFull, Params: env.Params, Seed: env.Case.Seed}

	check := func(s *session.Session, opts session.Options, want []string, label string) string {
		res, err := exec(s, env.SQL, opts)
		if err != nil {
			return fmt.Sprintf("%s: %v", label, err)
		}
		return diffRows(label, res.Rows, want)
	}
	// schedule runs the write schedule in a transaction on s, ended by end
	// if given, and returns each statement's RowsAffected.
	schedule := func(s *session.Session, end ...string) ([]int64, error) {
		if _, err := exec(s, "begin", session.Options{}); err != nil {
			return nil, err
		}
		var affected []int64
		for _, op := range ops {
			res, err := exec(s, op.sql, session.Options{})
			if err != nil {
				return nil, fmt.Errorf("%q: %w", op.sql, err)
			}
			affected = append(affected, res.RowsAffected)
		}
		for _, q := range end {
			if _, err := exec(s, q, session.Options{}); err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
		}
		return affected, nil
	}

	// Phase 1: uncommitted writes are invisible; rollback undoes them.
	writer, reader := mgr.Session(), mgr.Session()
	if _, err := schedule(writer); err != nil {
		return fail("uncommitted writer: %v", err)
	}
	if msg := check(reader, readOpts, env.Want, "reader during open write txn"); msg != "" {
		return fail("%s", msg)
	}
	if _, err := exec(writer, "rollback", session.Options{}); err != nil {
		return fail("rollback: %v", err)
	}
	if msg := check(reader, readOpts, env.Want, "reader after rollback"); msg != "" {
		return fail("%s", msg)
	}

	// Phase 2: commit the schedule mid-query from the reader's first
	// checkpoint; the in-flight snapshot must not see it. Cases whose
	// queries reach no checkpoint commit right after instead — the
	// post-commit state is the same either way.
	var affected []int64
	var commitErr error
	committed := false
	commit := func() {
		if committed {
			return
		}
		committed = true
		affected, commitErr = schedule(mgr.Session(), "commit")
	}
	hooked := readOpts
	hooked.NoCache = true // force a fresh plan so checkpoints are live
	hookFired := false
	hooked.CheckpointHook = func(int) { hookFired = true; commit() }
	if msg := check(reader, hooked, env.Want, "reader overlapping commit"); msg != "" {
		return fail("%s", msg)
	}
	commit()
	if commitErr != nil {
		return fail("committing writer: %v", commitErr)
	}

	// Phase 3: the committed state must match the serializable naive
	// reference, statement by statement and row by row.
	for i, op := range ops {
		want := op.apply()
		if affected[i] != want {
			return fail("%q affected %d rows, reference says %d", op.sql, affected[i], want)
		}
	}
	own, _ := env.Case.projections()
	want2 := Canonical(env.reference(own))
	if msg := check(reader, readOpts, want2, "reader after commit"); msg != "" {
		return fail("%s", msg)
	}

	// Phase 4: no snapshot pins anything now — vacuum must reclaim
	// every dead version, and the run must leave no residue.
	if _, err := env.Cat.Vacuum(); err != nil {
		return fail("vacuum: %v", err)
	}
	if dead, err := env.Cat.DeadVersions(); err != nil || dead != 0 {
		return fail("%d dead versions after vacuum (err %v)", dead, err)
	}
	if msg := env.indexResidue(); msg != "" {
		return fail("after vacuum: %s", msg)
	}
	if msg := checkResidue(env, mgr); msg != "" {
		return fail("%s", msg)
	}

	// Phase 5: heap pages are residue too. One transaction's updates need
	// room for their new versions before any vacuum can free the old
	// ones, so the tables may have grown by the schedule's own size; from
	// here on they are in steady state and must not grow again.
	pages := env.tablePages()
	if _, err := schedule(writer, "rollback"); err != nil {
		return fail("repeated writer: %v", err)
	}
	if _, err := env.Cat.Vacuum(); err != nil {
		return fail("vacuum: %v", err)
	}
	for i, now := range env.tablePages() {
		if now > pages[i]+heapSlackPages {
			return fail("table %s grew from %d to %d pages rerunning a schedule vacuum had made room for",
				env.Tables[i].Name, pages[i], now)
		}
	}
	if msg := env.indexResidue(); msg != "" {
		return fail("after the rolled-back rerun: %s", msg)
	}
	if msg := books.checkCharges(env, mgr); msg != "" {
		return fail("%s", msg)
	}
	outcome := "ok"
	if hookFired {
		outcome = "ok (mid-query commit)"
	}
	return fmt.Sprintf("%s: %s (%d ops)", rc.Name, outcome, len(ops)), nil
}
