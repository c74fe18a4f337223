package exec

import (
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// SeqScan reads a base table (or registered temp table) page by page,
// charging one CPU tuple per tuple examined and applying pushed-down
// filters before tuples leave the operator. Heap scans hand the filters,
// compiled against the stored record, and the node's column list to the
// storage scanner, which tests a record where it lies and builds a tuple
// of only the columns the plan kept: a column that only a filter reads
// never leaves the page. A node with a Key is an index scan: the same
// filters and columns, applied to the versions the key range's index
// entries point at, fetched by the engine's one RID-fetch loop.
type SeqScan struct {
	node *plan.Scan
	ctx  *Ctx
	scan *storage.HeapScanner
	key  *keyReader // an index scan's; nil on the partitions that read nothing
	lent bool       // the consumer keeps no tuple past its next Next (see Lend)

	// rows/idx drive virtual tables (catalog.Table.Virtual): the
	// provider materializes its rows once at Open and the scan iterates
	// the snapshot, so a system table is a consistent point-in-time
	// view even while the engine state behind it keeps moving.
	rows []types.Tuple
	idx  int
}

// NewSeqScan returns a sequential scan over the node's table.
func NewSeqScan(n *plan.Scan, ctx *Ctx) *SeqScan {
	return &SeqScan{node: n, ctx: ctx}
}

// Schema implements Operator.
func (s *SeqScan) Schema() *types.Schema { return s.node.Out }

// Open implements Operator. In a partitioned context (a parallel scan
// worker) the scan covers only its own page partition. The pages it
// misses are charged to the context's meter either way: the query's, or
// the worker's tributary of it.
func (s *SeqScan) Open() error {
	// Virtual tables and key ranges have no pages to partition: in a
	// parallel region only partition 0 produces their rows, so the
	// gather sees each row exactly once.
	first := s.ctx.PartOf <= 1 || s.ctx.Part == 0
	if s.node.Table.Virtual != nil {
		s.idx = 0
		if first {
			s.rows = s.node.Table.Virtual()
		}
		return nil
	}
	if k := s.node.Key; k != nil {
		if !first {
			return nil
		}
		r, err := newKeyReader(s.node.Table, k.Col, s.node.Filters, s.node.Cols, s.ctx, s.examine)
		if err != nil {
			return err
		}
		s.key = &r
		return r.scan(k)
	}
	s.scan = s.node.Table.Heap.ScanPartition(s.ctx.Part, s.ctx.PartOf, s.ctx.Meter).
		WithSnapshot(s.ctx.Snap).WithColumns(s.node.Cols).OnExamine(s.examine)
	if f := plan.CompileFilter(s.node.Filters, s.ctx.Params); f != nil {
		s.scan.WithFilter(f)
	}
	if s.lent {
		s.scan.Lend()
	}
	return nil
}

// examine is the per-tuple work of a heap scan, done for every visible
// tuple whether or not the filters pass it.
func (s *SeqScan) examine() error {
	if err := s.ctx.Tick(); err != nil {
		return err
	}
	if err := faultinject.Hit("exec.scan.next"); err != nil {
		return err
	}
	s.ctx.Meter.ChargeTuples(1)
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next() (types.Tuple, error) {
	if s.node.Table.Virtual != nil {
		for s.idx < len(s.rows) {
			if err := s.ctx.Tick(); err != nil {
				return nil, err
			}
			s.ctx.Meter.ChargeTuples(1)
			t := s.rows[s.idx]
			s.idx++
			if ok, err := testAll(s.node.Filters, t, s.ctx.Params); err != nil {
				return nil, err
			} else if ok {
				return t, nil
			}
		}
		return nil, nil
	}
	if s.node.Key != nil {
		if s.key == nil {
			return nil, nil
		}
		return s.key.next()
	}
	if s.scan.Next() {
		return s.scan.Tuple(), nil
	}
	return nil, s.scan.Err()
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	s.scan = nil
	s.key = nil
	s.rows = nil
	return nil
}
