package exec

import (
	"container/heap"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// Sort is an external merge sort: tuples accumulate in memory up to the
// node's grant, sorted runs spill to temporary files, and a k-way merge
// streams the result. With no grant (or a sufficient one) it sorts
// entirely in memory.
type Sort struct {
	node *plan.Sort
	in   Operator
	ctx  *Ctx

	grant   float64
	buf     []types.Tuple
	size    float64
	peakMem float64 // high-water sort-buffer memory, for EXPLAIN ANALYZE
	runs    []*storage.HeapFile
	closed  bool

	// Emission state.
	mem    []types.Tuple
	memPos int
	merge  *mergeHeap
}

// NewSort builds an external sort operator.
func NewSort(n *plan.Sort, in Operator, ctx *Ctx) *Sort {
	return &Sort{node: n, in: in, ctx: ctx}
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.node.Schema() }

// less orders tuples by the node's sort keys.
func (s *Sort) less(a, b types.Tuple) bool {
	for _, k := range s.node.Keys {
		c := a[k.Col].Compare(b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// Open implements Operator: consumes the entire input (blocking).
func (s *Sort) Open() error {
	s.grant = s.node.Est().Grant
	if err := s.in.Open(); err != nil {
		return err
	}
	for {
		if err := s.ctx.Tick(); err != nil {
			return err
		}
		if err := faultinject.Hit("exec.sort.drain"); err != nil {
			return err
		}
		t, err := s.in.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		s.ctx.Meter.ChargeTuples(1)
		s.buf = append(s.buf, t)
		s.size += float64(types.EncodedSize(t))
		if s.size > s.peakMem {
			s.peakMem = s.size
		}
		if s.grant > 0 && s.size > s.grant {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
	}
	if err := s.in.Close(); err != nil {
		return err
	}
	if len(s.runs) == 0 {
		sort.SliceStable(s.buf, func(i, j int) bool { return s.less(s.buf[i], s.buf[j]) })
		s.mem = s.buf
		s.buf = nil
		return nil
	}
	if len(s.buf) > 0 {
		if err := s.flushRun(); err != nil {
			return err
		}
	}
	return s.openMerge()
}

// flushRun sorts the buffer and writes it out as one run.
func (s *Sort) flushRun() error {
	sort.SliceStable(s.buf, func(i, j int) bool { return s.less(s.buf[i], s.buf[j]) })
	run := storage.NewTempFile(s.ctx.Pool, s.ctx.Meter)
	for _, t := range s.buf {
		if _, err := run.Append(t); err != nil {
			return err
		}
	}
	s.runs = append(s.runs, run)
	s.buf = nil
	s.size = 0
	return nil
}

// mergeHeap is a k-way merge over run scanners.
type mergeHeap struct {
	s     *Sort
	heads []mergeHead
}

type mergeHead struct {
	tuple types.Tuple
	scan  *storage.HeapScanner
}

func (m *mergeHeap) Len() int           { return len(m.heads) }
func (m *mergeHeap) Less(i, j int) bool { return m.s.less(m.heads[i].tuple, m.heads[j].tuple) }
func (m *mergeHeap) Swap(i, j int)      { m.heads[i], m.heads[j] = m.heads[j], m.heads[i] }

func (m *mergeHeap) Push(x any) { m.heads = append(m.heads, x.(mergeHead)) }

func (m *mergeHeap) Pop() any {
	h := m.heads[len(m.heads)-1]
	m.heads = m.heads[:len(m.heads)-1]
	return h
}

func (s *Sort) openMerge() error {
	s.merge = &mergeHeap{s: s}
	for _, run := range s.runs {
		sc := run.Scan()
		if sc.Next() {
			s.merge.heads = append(s.merge.heads, mergeHead{tuple: sc.Tuple(), scan: sc})
		} else if err := sc.Err(); err != nil {
			return err
		}
	}
	heap.Init(s.merge)
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (types.Tuple, error) {
	if err := s.ctx.Tick(); err != nil {
		return nil, err
	}
	if s.merge == nil {
		if s.memPos >= len(s.mem) {
			return nil, nil
		}
		t := s.mem[s.memPos]
		s.memPos++
		return t, nil
	}
	if s.merge.Len() == 0 {
		return nil, nil
	}
	head := s.merge.heads[0]
	out := head.tuple
	if head.scan.Next() {
		s.merge.heads[0] = mergeHead{tuple: head.scan.Tuple(), scan: head.scan}
		heap.Fix(s.merge, 0)
	} else {
		if err := head.scan.Err(); err != nil {
			return nil, err
		}
		heap.Pop(s.merge)
	}
	return out, nil
}

// Spilled reports whether external runs were written.
func (s *Sort) Spilled() bool { return len(s.runs) > 0 }

// MemUsed reports the peak sort-buffer memory in bytes.
func (s *Sort) MemUsed() float64 { return s.peakMem }

// SpilledBytes reports the bytes currently held in external sort runs.
func (s *Sort) SpilledBytes() float64 {
	var b float64
	for _, h := range s.runs {
		if h != nil {
			b += float64(h.ByteSize())
		}
	}
	return b
}

// Close implements Operator. Idempotent; cascades to the input so an
// abort mid-drain releases the child's side state too.
func (s *Sort) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, r := range s.runs {
		r.Drop()
	}
	s.mem, s.buf, s.merge = nil, nil, nil
	return s.in.Close()
}
