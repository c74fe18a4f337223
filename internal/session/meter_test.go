package session

import (
	"context"
	"testing"

	"repro/internal/reopt"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// Scans charge the pages they miss through the meter their context
// carries — serial scans, DML match scans and index-join fetches, as
// partition scans always did — and today that meter is the engine's, or
// a tributary flushed into it. So the attribution moves nothing that can
// be read: from a cold pool Q3's Result.Cost is the engine meter's delta,
// and serially that delta is, counter for counter, what the engine
// charged when serial misses went to the disk's meter by default (the
// numbers below were taken at the commit before the change: same load,
// same plan).
func TestScanReadsChargedThroughContextMeter(t *testing.T) {
	db, m := newTPCDManager(t, Config{})
	q3, err := tpcd.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(degree int) storage.Snapshot {
		t.Helper()
		db.pool.EvictAll()
		before := db.meter.Snapshot()
		res, err := m.Session().Exec(context.Background(), q3.SQL, Options{Mode: reopt.ModeOff, Parallel: degree})
		if err != nil {
			t.Fatal(err)
		}
		d := db.meter.Snapshot().Sub(before)
		if res.Cost != d.Cost() || d.PageReads == 0 {
			t.Errorf("degree %d: Result.Cost %.3f, the engine meter moved by %v", degree, res.Cost, d)
		}
		return d
	}
	if d := run(1); d.PageReads != 509 || d.PageWrites != 0 || d.TupleCPU != 60901 || d.StatCPU != 0 {
		t.Errorf("cold serial Q3 charged %v; want reads=509 writes=0 cpu=60901 stat=0", d)
	}
	run(2) // page reads vary with the workers' interleaving; the identity above must not
}
