package exchange

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/types"
)

// chunkCap is how many tuples cross an exchange queue per channel
// operation. Producers fill a private chunk per destination queue and
// hand it over when it is full and once at end of stream. The routing
// hop (BenchmarkHashRoute) costs 58 ns a tuple at 16, 46 at 64, 39 at
// 256 and 37 at 1024, against 172 for a tuple per send.
const chunkCap = 256

// chanCap is the buffering on exchange queues, in chunks (about 1k
// tuples). Enough to decouple producer and consumer bursts; small enough
// that a stalled consumer exerts backpressure within a few pages' worth
// of tuples.
const chanCap = 4

// freeCap bounds a region's free list. A chunk waits there only from
// its consumer's put to some producer's next get, so a few queues' worth
// is ample; beyond it drained chunks are left to the collector.
const freeCap = 2 * chanCap

// region is one parallel segment's runtime: a cancellation scope derived
// from the query context, the goroutines running inside it, and the
// first error any of them hit. Queue sends and receives select against
// the region's Done channel, so failing (or closing) the region unblocks
// every goroutine in it — no leaks, no stuck channels.
type region struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error

	// free holds drained chunks for reuse, so a hop allocates for the
	// chunks alive at once, not for every chunk sent. A chunk belongs
	// to one goroutine at a time: its producer until the send, its
	// consumer until put.
	free chan []types.Tuple

	// meters are the workers' tributary meters, in the order workerCtx
	// made them (the consumer's goroutine makes them all). A worker
	// flushes its own as it sends a chunk and from its spawn's first done
	// hook, so once a worker has been waited for the query meter holds
	// everything it charged.
	meters []*storage.CostMeter
}

func newRegion(parent context.Context) *region {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	return &region{ctx: ctx, cancel: cancel, free: make(chan []types.Tuple, freeCap)}
}

// fail records the region's first error and cancels it. Later calls
// keep the original error; fail(nil) is a no-op.
func (r *region) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// peekErr returns the recorded error, if any.
func (r *region) peekErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// cause explains why the region stopped: its first recorded error, else
// the (possibly parent-inherited) context error, else nil.
func (r *region) cause() error {
	if err := r.peekErr(); err != nil {
		return err
	}
	return r.ctx.Err()
}

// spawn runs fn on the query pool under the region: the goroutine is
// counted in the region's WaitGroup, panics are recovered into fail, and
// a non-nil return value fails the region. The done hooks run, in order,
// after the error is recorded and before the WaitGroup is released, so
// whoever a hook wakes — a waiter on a group, the consumer of a queue it
// closes — also observes the error. A worker with a tributary meter
// passes its Flush first: the hooks run on every exit path (end of
// stream, error, cancel, panic), and whoever a later hook wakes then
// also finds the worker's charges on the query meter.
func (r *region) spawn(c *exec.Ctx, label string, fn func() error, done ...func()) {
	r.wg.Add(1)
	c.Go("exchange:"+label, func() {
		defer func() {
			if p := recover(); p != nil {
				r.fail(panicErr(label, p))
			}
			for _, d := range done {
				d()
			}
			r.wg.Done()
		}()
		if err := fn(); err != nil {
			r.fail(err)
		}
	})
}

// lastOf returns a done hook shared by n producers of the same queues:
// the last of them to finish closes the queues.
func lastOf(n int, qs ...chan []types.Tuple) func() {
	var left atomic.Int32
	left.Store(int32(n))
	return func() {
		if left.Add(-1) == 0 {
			for _, q := range qs {
				close(q)
			}
		}
	}
}

// getChunk returns an empty chunk, recycled if one is free.
func (r *region) getChunk() []types.Tuple {
	select {
	case c := <-r.free:
		return c
	default:
		return make([]types.Tuple, 0, chunkCap)
	}
}

// putChunk recycles a drained chunk. Its slots are cleared first so the
// free list pins no tuple; tuples already handed out are untouched.
func (r *region) putChunk(c []types.Tuple) {
	clear(c)
	select {
	case r.free <- c[:0]:
	default:
	}
}

// outbox is one producer's private chunks, one per destination queue. m
// is the producer's tributary meter, flushed ahead of every chunk sent:
// the charges behind a chunk reach the query meter no later than its
// tuples reach their consumer. A router working on the consumer's own
// context has no tributary and passes nil.
type outbox struct {
	r    *region
	m    *storage.CostMeter
	qs   []chan []types.Tuple
	bufs [][]types.Tuple
}

func newOutbox(r *region, m *storage.CostMeter, qs ...chan []types.Tuple) *outbox {
	return &outbox{r: r, m: m, qs: qs, bufs: make([][]types.Tuple, len(qs))}
}

// put appends t to the chunk for queue w and sends the chunk once it is
// full; it reports false if the region ended first.
func (o *outbox) put(w int, t types.Tuple) bool {
	b := o.bufs[w]
	if b == nil {
		b = o.r.getChunk()
	}
	b = append(b, t)
	o.bufs[w] = b
	return len(b) < chunkCap || o.send(w)
}

// finish ends the producer's stream: it sends every partly filled chunk
// and closes op, the pipeline that fed the outbox. Producers call it
// once, at end of stream and before they return (so before their queue
// can close); error paths skip it — a failed region's tuples are not
// wanted.
func (o *outbox) finish(op exec.Operator) error {
	for w, b := range o.bufs {
		if len(b) > 0 && !o.send(w) {
			op.Close()
			return o.r.cause()
		}
	}
	return op.Close()
}

// send hands the chunk for queue w to its consumer unless the region is
// done; it reports whether the send happened.
func (o *outbox) send(w int) bool {
	o.m.Flush()
	select {
	case o.qs[w] <- o.bufs[w]:
		o.bufs[w] = nil
		return true
	case <-o.r.ctx.Done():
		return false
	}
}

// inbox is the consumer end of a queue: a cursor over the current chunk
// that touches the channel once per chunk.
type inbox struct {
	r   *region
	q   chan []types.Tuple
	cur []types.Tuple
	i   int
}

// next returns the next tuple, nil once the queue is closed and drained,
// or the region's cause if the region ends first — also when nobody is
// left to close the queue (an Open that failed before spawning).
func (in *inbox) next() (types.Tuple, error) {
	for in.i == len(in.cur) {
		if in.cur != nil {
			in.r.putChunk(in.cur)
			in.cur, in.i = nil, 0
		}
		select {
		case c, ok := <-in.q:
			if !ok {
				return nil, nil
			}
			in.cur = c
		case <-in.r.ctx.Done():
			return nil, in.r.cause()
		}
	}
	t := in.cur[in.i]
	in.i++
	return t, nil
}

// source adapts an exchange queue to the Operator interface so worker
// pipelines can be assembled from the ordinary operator constructors. A
// closed queue is end of stream; a cancelled region is an error.
type source struct {
	sch *types.Schema
	in  inbox
}

func newSource(r *region, q chan []types.Tuple, sch *types.Schema) *source {
	return &source{sch: sch, in: inbox{r: r, q: q}}
}

func (s *source) Open() error { return nil }

func (s *source) Next() (types.Tuple, error) { return s.in.next() }

func (s *source) Close() error { return nil }

func (s *source) Schema() *types.Schema { return s.sch }

// makeQueues allocates n buffered partition queues.
func makeQueues(n int) []chan []types.Tuple {
	qs := make([]chan []types.Tuple, n)
	for i := range qs {
		qs[i] = make(chan []types.Tuple, chanCap)
	}
	return qs
}

// workerCtx derives a worker's execution context from the consumer's:
// its own tick counter and tributary cost meter (local accounting that
// feeds the query totals a chunk at a time), the region's cancellation
// scope, its partition coordinates, and its share of memory grants.
// Stats sinks are left nil — the caller wires StateSink to the stage's
// merge buffer.
func workerCtx(parent *exec.Ctx, r *region, part, of int, share float64) *exec.Ctx {
	m := parent.Meter.Tributary()
	r.meters = append(r.meters, m)
	return &exec.Ctx{
		Pool:       parent.Pool,
		Meter:      m,
		Params:     parent.Params,
		Context:    r.ctx,
		CheckEvery: parent.CheckEvery,
		Part:       part,
		PartOf:     of,
		GrantShare: share,
		Snap:       parent.Snap,
		Spawn:      parent.Spawn,
		Trace:      parent.Trace,
		Prog:       parent.Prog,
	}
}

// close ends the region: it cancels whatever still runs and waits for
// every goroutine, and so for every worker's last flush. A nil region —
// an operator closed before it was opened — has nothing to end.
func (r *region) close() {
	if r == nil {
		return
	}
	r.cancel()
	r.wg.Wait()
}

// traceClosed reports a closed region to the query's trace: what its
// workers charged, and how much of that never reached the query meter —
// zero, unless a flush point is missing. The caller has closed the region
// and swept its operators.
func (r *region) traceClosed(ctx *exec.Ctx, kind string) {
	if r == nil || len(r.meters) == 0 || !ctx.Trace.Enabled() {
		return
	}
	var tuples, stats, unflushed int64
	for _, m := range r.meters {
		s, u := m.Snapshot(), m.Unflushed()
		tuples += s.TupleCPU
		stats += s.StatCPU
		unflushed += u.PageReads + u.PageWrites + u.TupleCPU + u.StatCPU
	}
	ctx.Trace.Emit("exchange", "parallel region closed", "region", kind,
		"workers", len(r.meters), "tuples", tuples, "stat_tuples", stats, "unflushed", unflushed)
}

func panicErr(label string, p any) error {
	return fmt.Errorf("exchange: %s panicked: %v", label, p)
}
