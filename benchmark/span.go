package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the id of the span that caused this one (0 for an op's
// root span). Operator spans additionally carry Busy — a pull-model
// operator is only active inside its parent's calls, so its interval
// says little and its accumulated inclusive time says everything.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Cat    string // layer (package) the span measures
	Start  time.Duration
	End    time.Duration
	Busy   time.Duration // operator spans: inclusive time inside Open/Next/Close
	Rows   int64         // operator spans: tuples produced
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written once, at the end.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name, cat string, parent, op int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Cat: cat, Start: now})
	return len(r.spans)
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// timed records fn as one span and returns its duration.
func (r *recorder) timed(name, cat string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, cat, parent, op)
	fn()
	return r.end(id)
}

// setBusy attaches an operator's accumulated time and row count.
func (r *recorder) setBusy(id int, busy time.Duration, rows int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Busy = busy
	r.spans[id-1].Rows = rows
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may nest, overlap
// each other, or stick out of the parent; the cover is the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for id, s := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var cover time.Duration
		edge := s.Start // everything before edge is already counted
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		out[id] = s.dur() - cover
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): a complete ("X") event with
// microsecond timestamps. One op per thread lane keeps ops apart.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every workload's spans as one trace file, one
// process lane per workload.
func writeChrome(path string, byWorkload map[string][]span, order []string) error {
	var events []chromeEvent
	for pid, name := range order {
		spans := byWorkload[name]
		self := selfTimes(spans)
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": name},
		})
		for _, s := range spans {
			args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
			if s.Busy > 0 {
				args["busy_us"] = us(s.Busy)
				args["rows"] = s.Rows
			} else {
				args["self_us"] = us(self[s.ID])
			}
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: us(s.Start), Dur: us(s.dur()),
				Pid: pid + 1, Tid: s.Op, Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
