package exec

import (
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// Project evaluates scalar expressions over its input.
type Project struct {
	node *plan.Project
	in   Operator
	ctx  *Ctx
	mem  types.Arena
}

// NewProject builds a projection operator.
func NewProject(n *plan.Project, in Operator, ctx *Ctx) *Project {
	return &Project{node: n, in: in, ctx: ctx}
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.node.Out }

// Open implements Operator. The input is lent: an output row is built
// before the next input tuple is asked for.
func (p *Project) Open() error {
	Lend(p.in)
	return p.in.Open()
}

// Next implements Operator.
func (p *Project) Next() (types.Tuple, error) {
	t, err := p.in.Next()
	if err != nil || t == nil {
		return nil, err
	}
	out := p.mem.New(len(p.node.Exprs), 0)
	for i, e := range p.node.Exprs {
		v, err := e.Eval(t, p.ctx.Params)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.in.Close() }

// Limit emits at most N tuples.
type Limit struct {
	node *plan.Limit
	in   Operator
	n    int64
}

// NewLimit builds a limit operator.
func NewLimit(node *plan.Limit, in Operator) *Limit {
	return &Limit{node: node, in: in}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.node.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.n = l.node.N
	return l.in.Open()
}

// Next implements Operator.
func (l *Limit) Next() (types.Tuple, error) {
	if l.n <= 0 {
		return nil, nil
	}
	t, err := l.in.Next()
	if err != nil || t == nil {
		return nil, err
	}
	l.n--
	return t, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.in.Close() }

// Materialize drains an opened operator into a fresh temporary heap file
// owned by ctx's meter. The re-optimizer uses it to redirect a running
// plan's output to Temp1 before resubmitting the remainder of the query
// (§2.4, Figure 6).
func Materialize(op Operator, ctx *Ctx) (*storage.HeapFile, error) {
	tf := storage.NewTempFile(ctx.Pool, ctx.Meter)
	for {
		t, err := op.Next()
		if err == nil && t != nil {
			err = faultinject.Hit("exec.materialize.append")
		}
		if err != nil {
			// The half-written temp file would otherwise leak its heap
			// pages: the caller never sees the handle on error.
			tf.Drop()
			return nil, err
		}
		if t == nil {
			return tf, nil
		}
		if _, err := tf.Append(t); err != nil {
			tf.Drop()
			return nil, err
		}
	}
}
