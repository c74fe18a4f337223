package exec

import (
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// HashJoin is a Grace-style hash join. Open runs the build phase: the
// left input is drained into an in-memory hash table; if the table
// exceeds the node's memory grant the join degrades to partitioned mode,
// writing both inputs to temporary partitions and joining them pairwise —
// the extra read and write pass over both inputs is exactly the
// "two-pass" penalty of the paper's Figure 3 walk-through.
//
// The probe phase starts lazily on the first Next call, so after Open
// returns the dispatcher is at the paper's mid-query decision point:
// "the build phase of the hash-join is complete, but the probe phase has
// not yet started" (§2.4).
type HashJoin struct {
	node  *plan.HashJoin
	build Operator
	probe Operator
	ctx   *Ctx

	grant float64 // bytes; 0 means unlimited

	// The hash table: build tuples as the build side handed them over
	// (they live in its scan's arena blocks; nothing is copied), indexed
	// by key hash. In-memory mode fills it once in Open; partitioned mode
	// refills the same slices for each build partition, from buildScan.
	rows      []types.Tuple
	index     hashIndex
	tableSize float64
	peakMem   float64 // high-water hash-table memory, for EXPLAIN ANALYZE

	// Partitioned (spilled) mode. Each side's partitions are read through
	// one scanner, re-aimed partition by partition (HeapScanner.Reset):
	// the probe side's is lent, and the build side's carves each
	// partition's tuples from the block of the partition before.
	spilled    bool
	buildParts []*storage.HeapFile
	probeParts []*storage.HeapFile
	buildScan  *storage.HeapScanner
	probeScan  *storage.HeapScanner

	// Probe state.
	opened      bool
	closed      bool
	probeOpened bool
	probeDone   bool
	mem         types.Arena   // what joined outputs are carved from
	pending     []types.Tuple // joined outputs of the last probe tuple matched
	head        int           // next of pending to emit
	curPart     int           // the partition loaded; -1 before the first
}

// NewHashJoin builds a hash join operator. The memory grant is read from
// the plan node's annotation at Open time, so the Memory Manager can
// adjust it any time before the build starts.
func NewHashJoin(n *plan.HashJoin, build, probe Operator, ctx *Ctx) *HashJoin {
	return &HashJoin{node: n, build: build, probe: probe, ctx: ctx}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.node.Schema() }

// HashKeys combines the key columns of a tuple into one hash. Exchange
// routers deal tuples by HashKeys%N, which sends equal keys of a join's
// build and probe sides to the same worker.
func HashKeys(t types.Tuple, keys []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		h = h*1099511628211 ^ t[k].Hash()
	}
	return h
}

// keysNull reports whether any key column is NULL (NULLs never join).
func keysNull(t types.Tuple, keys []int) bool {
	for _, k := range keys {
		if t[k].IsNull() {
			return true
		}
	}
	return false
}

// Open implements Operator: it runs the build phase to completion. Open
// is idempotent so the re-optimizing dispatcher can run build phases
// eagerly and later let parent operators cascade their Opens through.
func (j *HashJoin) Open() error {
	if j.opened {
		return nil
	}
	j.opened = true
	// A parallel worker builds 1/N of the tuples under 1/N of the
	// node's broker-backed grant (the context's share).
	j.grant = j.node.Est().Grant * j.ctx.grantShare()
	if err := j.build.Open(); err != nil {
		return err
	}
	for {
		if err := j.ctx.Tick(); err != nil {
			return err
		}
		if err := faultinject.Hit("exec.hashjoin.build"); err != nil {
			return err
		}
		t, err := j.build.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		// Build tuples charge double: hash-table inserts are heavier
		// than probes (the cost model mirrors this).
		j.ctx.Meter.ChargeTuples(2)
		if keysNull(t, j.node.BuildKeys) {
			continue
		}
		h := HashKeys(t, j.node.BuildKeys)
		if !j.spilled {
			j.addBuild(t, h)
			// Memory is accounted in encoded bytes, the same unit the
			// optimizer's size estimates use; the plan.BuildFudge factor
			// covers hash-table overhead in both places.
			j.tableSize += float64(types.EncodedSize(t))
			if m := j.tableSize * plan.BuildFudge; m > j.peakMem {
				j.peakMem = m
			}
			if j.grant > 0 && j.tableSize*plan.BuildFudge > j.grant {
				if err := j.spillBuild(); err != nil {
					return err
				}
			}
			continue
		}
		if err := writePart(j.buildParts, t, h); err != nil {
			return err
		}
	}
	if !j.spilled {
		j.index.seal()
	}
	return j.build.Close()
}

// addBuild appends a build tuple and its key hash to the table; the
// index is sealed when the side (or the partition) is drained.
func (j *HashJoin) addBuild(t types.Tuple, h uint64) {
	j.rows = append(room(j.rows, 1), t)
	j.index.add(h)
}

// resetTable empties the table, keeping its slices, and lets go of the
// tuples.
func (j *HashJoin) resetTable() {
	clear(j.rows)
	j.rows = j.rows[:0]
	j.index.reset()
}

// spillBuild switches to partitioned mode, flushing the current in-memory
// table into fresh partitions in insertion order, so the same input
// writes the same partition files every run. The partition count is
// chosen so each build partition fits in the grant under uniform hashing.
func (j *HashJoin) spillBuild() error {
	// Estimate the final build size from the fraction seen so far is
	// unknowable here, so size partitions for 4x the overflow point;
	// partitions that still overflow simply overcommit slightly, which
	// the simulator tolerates.
	p := 4 * int(j.tableSize*plan.BuildFudge/j.grant+1)
	if p < 2 {
		p = 2
	}
	// Bound the fan-out: beyond ~one output buffer page per partition
	// a real system would recurse instead, and hundreds of partition
	// files thrash the buffer pool.
	if p > 128 {
		p = 128
	}
	j.buildParts = make([]*storage.HeapFile, p)
	j.probeParts = make([]*storage.HeapFile, p)
	j.buildScan, j.probeScan = new(storage.HeapScanner), new(storage.HeapScanner).Lend()
	j.curPart = -1
	for i := range j.buildParts {
		j.buildParts[i] = storage.NewTempFile(j.ctx.Pool, j.ctx.Meter)
		j.probeParts[i] = storage.NewTempFile(j.ctx.Pool, j.ctx.Meter)
	}
	for i, t := range j.rows {
		if err := writePart(j.buildParts, t, j.index.hashes[i]); err != nil {
			return err
		}
	}
	j.resetTable()
	j.tableSize = 0
	j.spilled = true
	return nil
}

// writePart appends t, whose key hash is h, to its partition.
func writePart(parts []*storage.HeapFile, t types.Tuple, h uint64) error {
	// The high bits choose the partition (exchange routing takes the low
	// ones); hashIndex mixes every bit, so neither choice skews a table.
	idx := int((h >> 32) % uint64(len(parts)))
	_, err := parts[idx].Append(t)
	return err
}

// Next implements Operator: the probe phase.
func (j *HashJoin) Next() (types.Tuple, error) {
	for {
		if j.head < len(j.pending) {
			t := j.pending[j.head]
			j.pending[j.head] = nil // emitted: the caller's, not ours to pin
			j.head++
			j.ctx.Meter.ChargeTuples(1)
			return t, nil
		}
		// Drained: the next match fills the same backing array.
		j.pending, j.head = j.pending[:0], 0
		if j.probeDone {
			return nil, nil
		}
		if !j.probeOpened {
			if err := j.openProbe(); err != nil {
				return nil, err
			}
		}
		if !j.spilled {
			if err := j.ctx.Tick(); err != nil {
				return nil, err
			}
			if err := faultinject.Hit("exec.hashjoin.probe"); err != nil {
				return nil, err
			}
			t, err := j.probe.Next()
			if err != nil {
				return nil, err
			}
			if t == nil {
				j.probeDone = true
				if err := j.probe.Close(); err != nil {
					return nil, err
				}
				continue
			}
			j.ctx.Meter.ChargeTuples(1)
			if keysNull(t, j.node.ProbeKeys) {
				continue
			}
			j.match(t)
			continue
		}
		if err := j.nextSpilled(); err != nil {
			return nil, err
		}
	}
}

// openProbe starts the probe phase. In partitioned mode the whole probe
// input is partitioned to disk first.
func (j *HashJoin) openProbe() error {
	j.probeOpened = true
	// A probe tuple is done with once its matches are concatenated or it
	// is written to its partition: the probe side is lent.
	Lend(j.probe)
	if err := j.probe.Open(); err != nil {
		return err
	}
	if !j.spilled {
		return nil
	}
	for {
		if err := j.ctx.Tick(); err != nil {
			return err
		}
		if err := faultinject.Hit("exec.hashjoin.probe"); err != nil {
			return err
		}
		t, err := j.probe.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		j.ctx.Meter.ChargeTuples(1)
		if keysNull(t, j.node.ProbeKeys) {
			continue
		}
		if err := writePart(j.probeParts, t, HashKeys(t, j.node.ProbeKeys)); err != nil {
			return err
		}
	}
	return j.probe.Close()
}

// match appends all join results for probe tuple t to pending, in the
// order their build tuples arrived.
func (j *HashJoin) match(t types.Tuple) {
	h := HashKeys(t, j.node.ProbeKeys)
	for e := j.index.first(h); e >= 0; e = j.index.after(e, h) {
		if b := j.rows[e]; j.keysEqual(b, t) {
			j.pending = append(j.pending, j.mem.Concat(b, t))
		}
	}
}

func (j *HashJoin) keysEqual(b, p types.Tuple) bool {
	for i := range j.node.BuildKeys {
		if !b[j.node.BuildKeys[i]].Equal(p[j.node.ProbeKeys[i]]) {
			return false
		}
	}
	return true
}

// nextSpilled advances the partition-by-partition join, filling pending.
func (j *HashJoin) nextSpilled() error {
	for {
		if err := j.ctx.Tick(); err != nil {
			return err
		}
		if err := faultinject.Hit("exec.hashjoin.spill"); err != nil {
			return err
		}
		if j.curPart >= 0 {
			if j.probeScan.Next() {
				t := j.probeScan.Tuple()
				j.ctx.Meter.ChargeTuples(1)
				j.match(t)
				if len(j.pending) > 0 {
					return nil
				}
				continue
			}
			if err := j.probeScan.Err(); err != nil {
				return err
			}
			j.buildParts[j.curPart].Drop()
			j.probeParts[j.curPart].Drop()
		}
		j.curPart++
		if j.curPart >= len(j.buildParts) {
			j.probeDone = true
			return nil
		}
		if err := j.loadPartition(); err != nil {
			return err
		}
	}
}

// loadPartition loads build partition curPart into the table and aims
// the probe scanner at its probe partition. The partition before's build
// tuples are dead by now — the join's outputs are copies — so they are
// cleared and the build scanner carves this partition's from their block.
func (j *HashJoin) loadPartition() error {
	for _, t := range j.rows {
		clear(t)
	}
	j.resetTable()
	s := j.buildScan.Reset(j.buildParts[j.curPart])
	partSize := 0.0
	for s.Next() {
		if err := j.ctx.Tick(); err != nil {
			return err
		}
		t := s.Tuple()
		j.ctx.Meter.ChargeTuples(1)
		j.addBuild(t, HashKeys(t, j.node.BuildKeys))
		partSize += float64(types.EncodedSize(t))
	}
	if m := partSize * plan.BuildFudge; m > j.peakMem {
		j.peakMem = m
	}
	if err := s.Err(); err != nil {
		return err
	}
	j.index.seal()
	j.probeScan.Reset(j.probeParts[j.curPart])
	return nil
}

// Spilled reports whether the join degraded to partitioned mode — the
// observable difference the dynamic memory re-allocation experiments
// measure.
func (j *HashJoin) Spilled() bool { return j.spilled }

// MemUsed reports the peak hash-table memory in bytes (EXPLAIN
// ANALYZE's actual-memory column).
func (j *HashJoin) MemUsed() float64 { return j.peakMem }

// SpilledBytes reports the bytes currently held in spill partitions.
// Partitions are dropped as the probe consumes them, so this shrinks
// over time; the progress layer keeps the high-water mark.
func (j *HashJoin) SpilledBytes() float64 {
	var b float64
	for _, h := range j.buildParts {
		if h != nil {
			b += float64(h.ByteSize())
		}
	}
	for _, h := range j.probeParts {
		if h != nil {
			b += float64(h.ByteSize())
		}
	}
	return b
}

// Close implements Operator. It is idempotent and cascades to both
// children, so closing the topmost live operator after an abort releases
// every descendant's side state (spill partitions, sort runs) even when
// the children never reached their normal end-of-stream Close.
func (j *HashJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	for _, p := range j.buildParts {
		if p != nil {
			p.Drop()
		}
	}
	for _, p := range j.probeParts {
		if p != nil {
			p.Drop()
		}
	}
	j.rows, j.index = nil, hashIndex{}
	j.buildScan, j.probeScan = nil, nil
	err := j.build.Close()
	if err2 := j.probe.Close(); err == nil {
		err = err2
	}
	return err
}
