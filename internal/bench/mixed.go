package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/reopt"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// hotOrders is the size of the contended key range: every writer
// transaction updates one of the first hotOrders order rows, so
// concurrent writers collide there and exercise first-writer-wins
// conflict detection under load.
const hotOrders = 16

// WriteStats is the write side of the mixed workload's report: engine
// counters plus wall-clock write throughput. Unlike the figure costs,
// throughput is real elapsed time — it measures the MVCC write path's
// overhead, not the simulated cost model.
type WriteStats struct {
	Writers           int     `json:"writers"`
	TxnsPerWriter     int     `json:"txns_per_writer"`
	TxnsCommitted     float64 `json:"txns_committed"`
	TxnsAborted       float64 `json:"txns_aborted"`
	WriteConflicts    float64 `json:"write_conflicts"`
	RowsWritten       float64 `json:"rows_written"`
	WallSeconds       float64 `json:"wall_seconds"`
	RowsPerSecond     float64 `json:"rows_per_second"`
	StatsVersionDelta int64   `json:"stats_version_delta"`
	VersionsVacuumed  int64   `json:"versions_vacuumed"`
}

// MixedResult is the mixed write/read workload's full report: one Row
// per read query execution alongside the write-side statistics.
type MixedResult struct {
	Reads  []Row      `json:"reads"`
	Writes WriteStats `json:"writes"`
}

// Mixed runs the concurrent write/read workload: `writers` goroutines
// each commit `txnsPerWriter` transactions against orders (a multi-row
// insert into a private key range plus one contended hot-row update)
// while a reader sweeps the medium and complex queries under full
// re-optimization. Committed writes bump the statistics version
// mid-sweep, so later reads plan against shifted cardinalities, while
// an in-flight read keeps its snapshot and decides its checkpoints as
// if alone — the production scenario the MVCC subsystem exists to
// create. Dead versions are vacuumed at the end and reported.
func Mixed(cfg Config, writers, txnsPerWriter int) (*MixedResult, error) {
	if writers < 1 {
		writers = 1
	}
	if txnsPerWriter < 1 {
		txnsPerWriter = 1
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	mgr := session.NewManager(env.Cat, env.Pool, env.Meter, session.Config{
		MemPoolBytes:  float64(writers+1) * env.Cfg.MemBudget,
		MemBudget:     env.Cfg.MemBudget,
		PlanCacheSize: 64,
	})
	ctx := context.Background()
	v0 := env.Cat.StatsVersion()

	// Fresh keys start far above anything the generator produced, in a
	// private range per (writer, txn): insert conflicts are impossible,
	// so every abort is a genuine hot-row conflict.
	const keyBase = int64(1) << 40

	var wg sync.WaitGroup
	writerErrs := make([]error, writers)
	done := make(chan struct{})
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			r := rand.New(rand.NewSource(env.Cfg.Seed*1693 + int64(w)))
			for t := 0; t < txnsPerWriter; t++ {
				base := keyBase + int64(w)*1_000_000 + int64(t)*100
				err := writeTxn(ctx, s, r, base)
				if errors.Is(err, storage.ErrWriteConflict) {
					continue // aborted and counted; next transaction
				}
				if err != nil {
					writerErrs[w] = err
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// The read side sweeps until the writers finish — at least one full
	// pass, and one final pass after the last commit so the summary
	// always includes reads planned against fully shifted statistics.
	var reads []Row
	reader := mgr.Session()
	finished := false
	for pass := 0; !finished && pass < 64; pass++ {
		for _, q := range tpcd.Queries() {
			if q.Class == tpcd.Simple {
				continue
			}
			res, err := reader.Exec(ctx, q.SQL, session.Options{Mode: reopt.ModeFull})
			if err != nil {
				return nil, fmt.Errorf("mixed read %s: %w", q.Name, err)
			}
			reads = append(reads, Row{
				Query: q.Name, Class: q.Class, Full: res.Cost,
				EstCost: res.Stats.EstimatedCost, Switches: res.Stats.PlanSwitches,
			})
		}
		select {
		case <-done:
			finished = true
		default:
		}
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for w, err := range writerErrs {
		if err != nil {
			return nil, fmt.Errorf("mixed writer %d: %w", w, err)
		}
	}

	ws := WriteStats{
		Writers:           writers,
		TxnsPerWriter:     txnsPerWriter,
		TxnsCommitted:     counter(mgr, "mqr_txns_committed_total"),
		TxnsAborted:       counter(mgr, "mqr_txns_aborted_total"),
		WriteConflicts:    counter(mgr, "mqr_write_conflicts_total"),
		RowsWritten:       counter(mgr, "mqr_rows_written_total"),
		WallSeconds:       wall,
		StatsVersionDelta: env.Cat.StatsVersion() - v0,
	}
	if wall > 0 {
		ws.RowsPerSecond = ws.RowsWritten / wall
	}
	if ws.VersionsVacuumed, err = env.Cat.Vacuum(); err != nil {
		return nil, fmt.Errorf("mixed vacuum: %w", err)
	}
	return &MixedResult{Reads: reads, Writes: ws}, nil
}

// writeTxn commits one writer transaction: an update of a contended
// hot row first — its write stamp is then held for the rest of the
// transaction, so concurrent writers picking the same row conflict —
// followed by a 20-row insert into the caller's private key range. A
// conflict aborts the whole transaction (the session has no
// savepoints), so the inserts never happen.
func writeTxn(ctx context.Context, s *session.Session, r *rand.Rand, base int64) error {
	if _, err := s.Exec(ctx, "begin", session.Options{}); err != nil {
		return err
	}
	upd := fmt.Sprintf("update orders set o_totalprice = %.2f where o_orderkey = %d",
		1000+float64(r.Intn(40000))/100, 1+int64(r.Intn(hotOrders)))
	if _, err := s.Exec(ctx, upd, session.Options{}); err != nil {
		return err // DML errors abort the governing transaction
	}
	const batch = 20
	vals := make([]string, batch)
	for i := 0; i < batch; i++ {
		vals[i] = fmt.Sprintf("(%d, %d, 'O', %.2f, date '1996-%02d-%02d', '1-URGENT', 0)",
			base+int64(i), 1+r.Intn(100), 1000+float64(r.Intn(40000))/100,
			1+r.Intn(12), 1+r.Intn(28))
	}
	ins := "insert into orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice," +
		" o_orderdate, o_orderpriority, o_shippriority) values " + strings.Join(vals, ", ")
	if _, err := s.Exec(ctx, ins, session.Options{}); err != nil {
		return err
	}
	_, err := s.Exec(ctx, "commit", session.Options{})
	return err
}

func counter(mgr *session.Manager, name string) float64 {
	if c, ok := mgr.Registry().Get(name).(*obs.Counter); ok {
		return c.Value()
	}
	return 0
}

// FormatMixed renders the mixed workload report as text.
func FormatMixed(res *MixedResult) string {
	var b strings.Builder
	b.WriteString(FormatRows("Mixed write/read workload (reads under concurrent DML):", res.Reads))
	w := res.Writes
	fmt.Fprintf(&b, "writes: %d writer(s) x %d txns: %.0f committed, %.0f aborted (%.0f conflicts), %.0f rows in %.2fs (%.0f rows/s)\n",
		w.Writers, w.TxnsPerWriter, w.TxnsCommitted, w.TxnsAborted, w.WriteConflicts,
		w.RowsWritten, w.WallSeconds, w.RowsPerSecond)
	fmt.Fprintf(&b, "        stats version advanced %d time(s); vacuum reclaimed %d dead version(s)\n",
		w.StatsVersionDelta, w.VersionsVacuumed)
	return b.String()
}
