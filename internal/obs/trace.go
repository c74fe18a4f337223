package obs

import (
	"fmt"
	"sync"
)

// Event is one structured record in a query's lifecycle trace.
type Event struct {
	// Seq orders events within the trace; it keeps counting even after
	// the ring buffer starts dropping old events.
	Seq int `json:"seq"`
	// Query tags the event with the emitting query ("s3_q17") when the
	// trace carries a query tag — engine-wide rings interleave many
	// queries' events.
	Query string `json:"query,omitempty"`
	// Kind classifies the event: "plan", "scia", "collector",
	// "decision" (one per checkpoint, its text the reopt.Decision),
	// "exchange", "preempt", "cancel", "commit".
	Kind string `json:"kind"`
	// Msg is the human-readable summary.
	Msg string `json:"msg,omitempty"`
	// Attrs carries the structured payload (estimate/actual numbers,
	// lease sizes, budget fractions).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	if len(e.Attrs) == 0 {
		return fmt.Sprintf("[%s] %s", e.Kind, e.Msg)
	}
	return fmt.Sprintf("[%s] %s %v", e.Kind, e.Msg, e.Attrs)
}

// Trace is a bounded ring buffer of lifecycle events for one query.
//
// A nil *Trace is the disabled trace: Enabled reports false and Emit
// returns immediately, so instrumentation sites cost a nil check when
// tracing is off. Emission sites that would allocate to build attrs
// should guard with Enabled first.
type Trace struct {
	mu    sync.Mutex
	cap   int
	seq   int
	buf   []Event
	start int // ring read position
	n     int // events currently buffered

	// query stamps every emitted event's Query field; fwd, when set,
	// tees each event into a second (typically engine-wide) ring.
	query string
	fwd   *Trace
}

// DefaultTraceCap bounds a trace when NewTrace is given no capacity.
const DefaultTraceCap = 256

// NewTrace returns an enabled trace keeping the last capacity events
// (DefaultTraceCap if capacity <= 0). The ring starts at
// min(capacity, 32) slots and grows as events arrive: a query emits a
// few dozen at most.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{cap: capacity, buf: make([]Event, 0, min(capacity, 32))}
}

// Enabled reports whether events are being recorded. Safe on nil.
func (t *Trace) Enabled() bool { return t != nil }

// SetQuery tags every subsequently emitted event with the query tag.
// Safe on nil.
func (t *Trace) SetQuery(tag string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.query = tag
	t.mu.Unlock()
}

// SetForward tees every subsequently emitted event into fwd as well
// (the engine-wide ring behind mqr.trace). The forwarded copy keeps the
// originating Query tag but is re-sequenced by the receiving ring. Safe
// on nil.
func (t *Trace) SetForward(fwd *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fwd = fwd
	t.mu.Unlock()
}

// Emit records one event. kv is alternating key, value pairs; a
// trailing key without a value is dropped. Safe on nil (no-op).
func (t *Trace) Emit(kind, msg string, kv ...any) {
	if t == nil {
		return
	}
	var attrs map[string]any
	if len(kv) >= 2 {
		attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			key, ok := kv[i].(string)
			if !ok {
				key = fmt.Sprint(kv[i])
			}
			attrs[key] = kv[i+1]
		}
	}
	t.add(Event{Kind: kind, Msg: msg, Attrs: attrs})
}

// add stamps, sequences, and buffers one event, then forwards it
// outside the lock (the forward target has its own lock; never holding
// both at once rules out ordering deadlocks).
func (t *Trace) add(e Event) {
	t.mu.Lock()
	if e.Query == "" {
		e.Query = t.query
	}
	e.Seq = t.seq
	t.seq++
	if t.n < t.cap {
		t.buf = append(t.buf, e)
		t.n++
	} else {
		// Ring full: overwrite the oldest.
		t.buf[t.start] = e
		t.start = (t.start + 1) % t.cap
	}
	fwd := t.fwd
	t.mu.Unlock()
	if fwd != nil {
		fwd.add(e)
	}
}

// Len returns the number of buffered events. Safe on nil.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events the ring has overwritten. Safe on nil.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - t.n
}

// Events returns the buffered events oldest-first. Safe on nil.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%t.cap])
	}
	return out
}
