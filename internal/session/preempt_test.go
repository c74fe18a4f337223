package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/memmgr"
	"repro/internal/reopt"
	"repro/internal/tenant"
	"repro/internal/types"
)

// preemptQuery has two join steps plus an aggregation, so dispatch
// crosses several checkpoint-shaped boundaries where a preemption
// request can land.
const preemptQuery = `select a_grp, count(*) as cnt, sum(c_val) as v
	from a, b, c
	where a.a_fk = b.b_pk and a.a_grp = c.c_grp and a_val < :cut
	group by a_grp order by a_grp`

func preemptDB(t *testing.T) (*testDB, *Manager) {
	t.Helper()
	db := newTestDB(1024)
	db.addTable(t, "a", 4000, 100, 10)
	db.addTable(t, "b", 100, 10, 5)
	db.addTable(t, "c", 10, 5, 10)
	db.markPages()
	return db, db.manager(Config{})
}

// TestPreemptResumeByteIdentical is the checkpoint-preemption
// acceptance test: a query suspended at a re-optimization checkpoint —
// lease released, temps dropped, parked in the admission queue — must
// resume and produce exactly the rows of an undisturbed run, leave no
// temp or heap residue, and fully repay the broker.
func TestPreemptResumeByteIdentical(t *testing.T) {
	db, m := preemptDB(t)
	params := map[string]types.Value{"cut": types.NewFloat(500)}

	ref, err := m.Session().Exec(context.Background(), preemptQuery, Options{
		Mode: reopt.ModeFull, NoCache: true, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Preempt the query from inside its own first checkpoint: the flag
	// is set while the dispatcher is mid-segment and honored at the next
	// segment boundary — exactly the paper's suspend point.
	var once sync.Once
	res, err := m.Session().Exec(context.Background(), preemptQuery, Options{
		Mode: reopt.ModeFull, NoCache: true, Params: params,
		CheckpointHook: func(step int) {
			once.Do(func() {
				for _, tag := range m.Running() {
					m.Preempt(tag)
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preempted < 1 {
		t.Fatalf("query was never preempted (Preempted = %d)", res.Preempted)
	}
	rowsEqual(t, "preempt+resume", res.Rows, ref.Rows)
	checkNoResidue(t, "preempt", db, m)
}

// TestPreemptResumeCap: a query preempted more times than the resume
// cap keeps its lease marked non-preemptible and still completes with
// correct rows — preemption may delay work, never livelock it.
func TestPreemptResumeCap(t *testing.T) {
	db, m := preemptDB(t)
	params := map[string]types.Value{"cut": types.NewFloat(500)}

	ref, err := m.Session().Exec(context.Background(), preemptQuery, Options{
		Mode: reopt.ModeFull, NoCache: true, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Preempt at every checkpoint of every incarnation, forever. The
	// resume cap must cut this off by exempting the lease.
	res, err := m.Session().Exec(context.Background(), preemptQuery, Options{
		Mode: reopt.ModeFull, NoCache: true, Params: params,
		CheckpointHook: func(step int) {
			for _, tag := range m.Running() {
				m.Preempt(tag)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preempted < 1 {
		t.Fatalf("query was never preempted (Preempted = %d)", res.Preempted)
	}
	rowsEqual(t, "preempt-storm", res.Rows, ref.Rows)
	checkNoResidue(t, "preempt-storm", db, m)
}

// TestPreemptByHigherPriorityAdmission drives the full end-to-end path
// with no test hook: a low-priority query holding most of the pool is
// preempted by a high-priority tenant's admission, suspends at its
// checkpoint, the high-priority query runs, and the victim resumes and
// finishes correctly.
func TestPreemptByHigherPriorityAdmission(t *testing.T) {
	db, m := preemptDB(t)
	m.SetTenantConfig("prod", tenant.Config{Weight: 1, Priority: 1})
	m.SetTenantConfig("batch", tenant.Config{Weight: 1, Priority: 0})
	params := map[string]types.Value{"cut": types.NewFloat(500)}

	ref, err := m.Session().Exec(context.Background(), preemptQuery, Options{
		Mode: reopt.ModeFull, NoCache: true, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The batch query starts first and is throttled through checkpoints
	// by a hook that waits for the prod admission to have been issued,
	// giving the preemption request a boundary to land on.
	prodDone := make(chan struct{})
	batchRes := make(chan *Result, 1)
	batchErr := make(chan error, 1)
	go func() {
		res, err := m.Session().Exec(context.Background(), preemptQuery, Options{
			Mode: reopt.ModeFull, NoCache: true, Params: params, Tenant: "batch",
			CheckpointHook: func(step int) {
				select {
				case <-prodDone:
				case <-time.After(20 * time.Millisecond):
				}
			},
		})
		batchRes <- res
		batchErr <- err
	}()

	// Wait until the batch query actually holds its lease (tracked tags
	// appear before admission; a free pool would let prod in without
	// preempting anything), then issue a high-priority admission big
	// enough to demand the memory back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Broker().Stats(); st.AvailBytes < st.PoolBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch query never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	st := m.Broker().Stats()
	lease, err := m.Broker().AdmitTenant(context.Background(), "prod", "urgent",
		st.PoolBytes, st.PoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	close(prodDone)

	if err := <-batchErr; err != nil {
		t.Fatal(err)
	}
	res := <-batchRes
	if res.Preempted < 1 {
		t.Fatalf("high-priority admission never preempted the batch query (Preempted = %d)", res.Preempted)
	}
	if res.Tenant != "batch" {
		t.Fatalf("result tenant = %q, want batch", res.Tenant)
	}
	rowsEqual(t, "priority-preempt", res.Rows, ref.Rows)
	checkNoResidue(t, "priority-preempt", db, m)
}

// TestPreemptEveryModeAtSegmentBoundary: a query in any mode, off
// included, that is asked to preempt mid-scan stops at its next segment
// boundary, resumes once, and returns the rows of an undisturbed run.
func TestPreemptEveryModeAtSegmentBoundary(t *testing.T) {
	db, m := preemptDB(t)
	params := map[string]types.Value{"cut": types.NewFloat(500)}
	for mode := reopt.ModeOff; mode <= reopt.ModeRestart; mode++ {
		opts := Options{Mode: mode, NoCache: true, Params: params}
		ref, err := m.Session().Exec(context.Background(), preemptQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.Enable()
		asked := false
		inj.Arm("exec.scan.next", faultinject.Fault{After: 1, Do: func() {
			for _, tag := range m.Running() {
				asked = m.Preempt(tag) || asked
			}
		}})
		res, err := m.Session().Exec(context.Background(), preemptQuery, opts)
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !asked || res.Preempted != 1 {
			t.Fatalf("%v: asked to preempt %v, Preempted = %d, want 1", mode, asked, res.Preempted)
		}
		rowsEqual(t, mode.String(), res.Rows, ref.Rows)
		checkNoResidue(t, mode.String(), db, m)
	}
}

// TestPreemptUnknownTag: preempting a tag that is not running is a
// clean no-op.
func TestPreemptUnknownTag(t *testing.T) {
	_, m := preemptDB(t)
	if m.Preempt("nope") {
		t.Fatal("Preempt of unknown tag reported success")
	}
}

var _ = memmgr.ErrPreempted // pin the import; the sentinel is the contract under test
