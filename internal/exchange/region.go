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

// chunk is what an exchange queue carries: up to chunkCap tuples;
// when the queue's reader lends and its producer's input recycles, the
// Values block the producer copied those tuples into; and the producer's
// tributary meter, which the reader flushes as it takes the chunk.
type chunk struct {
	tups []types.Tuple
	vals []types.Value
	m    *storage.CostMeter
}

// free is the process's chunk free list, shared by every region: a chunk
// waits there only from its reader's put to some producer's next get, and
// a query's regions come and go too fast for lists of their own to fill.
// Its bound holds what a degree-4 join region has alive at once (a chunk
// per probe producer and queue, chanCap queued per queue, one per
// reader); beyond it drained chunks are left to the collector. A channel,
// not a sync.Pool: under the race detector a Pool drops a share of its
// Puts at random, and the hop would allocate per chunk sent.
var free = make(chan *chunk, 16*chanCap)

// getChunk returns an empty chunk, recycled if one is free.
func getChunk() *chunk {
	select {
	case c := <-free:
		return c
	default:
		return &chunk{tups: make([]types.Tuple, 0, chunkCap)}
	}
}

// putChunk recycles a drained chunk. Its slots are cleared first so the
// free list pins no tuple; tuples already handed out are untouched. A
// lent reader is done with the values the chunk carried, so they are
// cleared and their block goes back with it; a keeper holds them, so
// they stay with the keeper and the chunk goes back without them.
func putChunk(c *chunk, lent bool) {
	clear(c.tups)
	c.tups = c.tups[:0]
	c.m = nil
	if lent {
		clear(c.vals)
		c.vals = c.vals[:0]
	} else if len(c.vals) > 0 {
		c.vals = nil
	}
	select {
	case free <- c:
	default:
	}
}

// carve copies t's values into the chunk's block and returns the copy.
// A block too small for chunkCap tuples of the first one's width is
// replaced, so a stream of one width never outgrows it.
func (c *chunk) carve(t types.Tuple) types.Tuple {
	n := len(c.vals)
	if n == 0 && cap(c.vals) < chunkCap*len(t) {
		c.vals = make([]types.Value, 0, chunkCap*len(t))
	}
	c.vals = append(c.vals, t...)
	return types.Tuple(c.vals[n:len(c.vals):len(c.vals)])
}

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

	// meters are the workers' tributary meters, in the order workerCtx
	// made them (the consumer's goroutine makes them all). Each chunk's
	// reader flushes its producer's meter, and close flushes them all, so
	// once the region is closed the query meter holds everything its
	// workers charged.
	meters []*storage.CostMeter
}

func newRegion(parent context.Context) *region {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	return &region{ctx: ctx, cancel: cancel}
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

// spawn runs fn on a goroutine the region owns: it is counted in the
// region's WaitGroup and in the query's Workers, panics are recovered
// into fail, and a non-nil return value fails the region. The done hooks
// run, in order, after the error is recorded and before the WaitGroup is
// released, so whoever a hook wakes — a waiter on a group, the consumer
// of a queue it closes — also observes the error.
func (r *region) spawn(c *exec.Ctx, label string, fn func() error, done ...func()) {
	r.wg.Add(1)
	if c.Workers != nil {
		c.Workers.Add(1)
	}
	go func() {
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
	}()
}

// lastOf returns a done hook shared by n producers of the same queues:
// the last of them to finish closes the queues.
func lastOf(n int, qs ...chan *chunk) func() {
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

// outbox is one producer's private chunks, one per destination queue. m
// is the producer's tributary meter, which every chunk carries and its
// reader flushes as it takes the chunk: the charges behind a chunk reach
// the query meter no later than its tuples reach their consumer, and
// inside the consumer's own call, where EXPLAIN ANALYZE measures them. A
// router working on the consumer's own context has no tributary and
// passes nil. copies is set when the queues' readers lend and the
// producer's input, lent in turn, recycles its tuples: each tuple is then
// copied into its chunk's block, because the input reuses its memory
// while the chunk waits in a queue.
type outbox struct {
	r      *region
	m      *storage.CostMeter
	copies bool
	qs     []chan *chunk
	bufs   []*chunk
}

func newOutbox(r *region, m *storage.CostMeter, copies bool, qs ...chan *chunk) *outbox {
	return &outbox{r: r, m: m, copies: copies, qs: qs, bufs: make([]*chunk, len(qs))}
}

// put appends t to the chunk for queue w and sends the chunk once it is
// full; it reports false if the region ended first.
func (o *outbox) put(w int, t types.Tuple) bool {
	c := o.bufs[w]
	if c == nil {
		c = getChunk()
		o.bufs[w] = c
	}
	if o.copies {
		t = c.carve(t)
	}
	c.tups = append(c.tups, t)
	return len(c.tups) < chunkCap || o.send(w)
}

// finish ends the producer's stream: it closes op, the pipeline that fed
// the outbox, and sends every partly filled chunk, and on the first queue
// a last one even if empty, so the reader flushes all the stream charged.
// Producers call it once, at end of stream and before they return (so
// before their queue can close); error paths skip it — a failed region's
// tuples are not wanted.
func (o *outbox) finish(op exec.Operator) error {
	err := op.Close()
	if o.bufs[0] == nil {
		o.bufs[0] = getChunk()
	}
	for w, c := range o.bufs {
		if c != nil && !o.send(w) {
			return o.r.cause()
		}
	}
	return err
}

// send hands the chunk for queue w to its consumer unless the region is
// done; it reports whether the send happened.
func (o *outbox) send(w int) bool {
	o.bufs[w].m = o.m
	select {
	case o.qs[w] <- o.bufs[w]:
		o.bufs[w] = nil
		return true
	case <-o.r.ctx.Done():
		return false
	}
}

// inbox is the consumer end of a queue: a cursor over the current chunk
// that touches the channel once per chunk. lent says whether its reader
// lends, which the stage fixes when it assembles: then moving past a
// chunk clears the values it carried, and a reader that broke its promise
// reads NULLs.
type inbox struct {
	r    *region
	q    chan *chunk
	lent bool
	cur  *chunk
	i    int
}

// next returns the next tuple, nil once the queue is closed and drained,
// or the region's cause if the region ends first — also when nobody is
// left to close the queue (an Open that failed before spawning).
func (in *inbox) next() (types.Tuple, error) {
	for in.cur == nil || in.i == len(in.cur.tups) {
		if in.cur != nil {
			putChunk(in.cur, in.lent)
			in.cur, in.i = nil, 0
		}
		select {
		case c, ok := <-in.q:
			if !ok {
				return nil, nil
			}
			c.m.Flush()
			in.cur = c
		case <-in.r.ctx.Done():
			return nil, in.r.cause()
		}
	}
	t := in.cur.tups[in.i]
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

func newSource(r *region, q chan *chunk, lent bool, sch *types.Schema) *source {
	return &source{sch: sch, in: inbox{r: r, q: q, lent: lent}}
}

func (s *source) Open() error { return nil }

func (s *source) Next() (types.Tuple, error) { return s.in.next() }

func (s *source) Close() error { return nil }

func (s *source) Schema() *types.Schema { return s.sch }

// Lend reports whether the queue recycles what it carries. That was fixed
// when the stage assembled, on the consumer's goroutine, because the
// queue's producers may be sending before the reader gets to say so.
func (s *source) Lend() bool { return s.in.lent }

// makeQueues allocates n buffered partition queues.
func makeQueues(n int) []chan *chunk {
	qs := make([]chan *chunk, n)
	for i := range qs {
		qs[i] = make(chan *chunk, chanCap)
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
		Workers:    parent.Workers,
		Trace:      parent.Trace,
		Prog:       parent.Prog,
	}
}

// close ends the region: it cancels whatever still runs, waits for
// every goroutine, and flushes what their readers did not take with a
// chunk — all a worker charged, if it stopped early. A nil region — an
// operator closed before it was opened — has nothing to end.
func (r *region) close() {
	if r == nil {
		return
	}
	r.cancel()
	r.wg.Wait()
	for _, m := range r.meters {
		m.Flush()
	}
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
