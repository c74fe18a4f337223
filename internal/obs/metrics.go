// Package obs is the engine's observability layer: a dependency-free
// metrics registry (counters, gauges, histograms) with a Prometheus
// text-format writer, a per-query structured event trace, and each
// query's per-operator progress record, which EXPLAIN ANALYZE renders
// next to the optimizer's estimates.
//
// Everything here is nil-safe: a nil *Trace or nil *Progress is a valid
// disabled instance whose methods are no-ops, so the engine's hot paths
// pay only a nil check when observability is not requested.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap, so counters
// and gauges need no lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64  { return math.Float64frombits(f.bits.Load()) }
func formatFloat(v float64) string    { return strconv.FormatFloat(v, 'g', -1, 64) }
func sampleLine(v float64) []promLine { return []promLine{{value: v}} }

// promLine is one exposition line of a metric: name+suffix{labels} value.
type promLine struct {
	suffix string
	labels string
	value  float64
}

// metric is anything the registry can expose.
type metric interface {
	name() string
	help() string
	typ() string // "counter", "gauge", "histogram"
	lines() []promLine
}

// Counter is a monotonically increasing metric. The zero value is not
// usable; create counters through a Registry.
type Counter struct {
	mname, mhelp string
	v            atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds a non-negative delta (negative deltas are dropped: counters
// only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// String implements expvar.Var, so counters can be expvar.Publish'ed.
func (c *Counter) String() string { return formatFloat(c.Value()) }

func (c *Counter) name() string      { return c.mname }
func (c *Counter) help() string      { return c.mhelp }
func (c *Counter) typ() string       { return "counter" }
func (c *Counter) lines() []promLine { return sampleLine(c.Value()) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	mname, mhelp string
	v            atomicFloat
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add adjusts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// String implements expvar.Var.
func (g *Gauge) String() string { return formatFloat(g.Value()) }

func (g *Gauge) name() string      { return g.mname }
func (g *Gauge) help() string      { return g.mhelp }
func (g *Gauge) typ() string       { return "gauge" }
func (g *Gauge) lines() []promLine { return sampleLine(g.Value()) }

// FuncMetric reads its value at scrape time — the natural fit for state
// that already lives elsewhere (broker pool occupancy, cache entries).
type FuncMetric struct {
	mname, mhelp, mtyp string
	fn                 func() float64
}

// Value calls the backing function.
func (f *FuncMetric) Value() float64 { return f.fn() }

// String implements expvar.Var.
func (f *FuncMetric) String() string { return formatFloat(f.Value()) }

func (f *FuncMetric) name() string      { return f.mname }
func (f *FuncMetric) help() string      { return f.mhelp }
func (f *FuncMetric) typ() string       { return f.mtyp }
func (f *FuncMetric) lines() []promLine { return sampleLine(f.Value()) }

// Histogram is a cumulative-bucket histogram in the Prometheus style.
type Histogram struct {
	mname, mhelp string

	mu     sync.Mutex
	bounds []float64 // upper bucket bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// String implements expvar.Var with a compact JSON summary.
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf(`{"count":%d,"sum":%s}`, h.count, formatFloat(h.sum))
}

func (h *Histogram) name() string { return h.mname }
func (h *Histogram) help() string { return h.mhelp }
func (h *Histogram) typ() string  { return "histogram" }

func (h *Histogram) lines() []promLine {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]promLine, 0, len(h.bounds)+3)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		out = append(out, promLine{suffix: "_bucket", labels: `le="` + formatFloat(b) + `"`, value: float64(cum)})
	}
	cum += h.counts[len(h.bounds)]
	out = append(out,
		promLine{suffix: "_bucket", labels: `le="+Inf"`, value: float64(cum)},
		promLine{suffix: "_sum", value: h.sum},
		promLine{suffix: "_count", value: float64(cum)})
	return out
}

// Registry holds a named set of metrics and renders them in the
// Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// register adds m to the registry. Re-registering a metric identical to
// an existing one — same name, exposition type, help, and metric kind —
// is idempotent: the registered instance is returned so a rebuilt
// session keeps accumulating into the same series instead of panicking.
// Func-backed metrics are the exception: they read external state at
// scrape time, so re-registration rebinds the name to the caller's
// fresh closure (the old closure may capture a torn-down broker or
// cache). A name collision with a different type or help is still a
// programming error and panics.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, dup := r.metrics[m.name()]
	if !dup {
		r.metrics[m.name()] = m
		return m
	}
	isFunc := func(x metric) bool {
		switch x.(type) {
		case *FuncMetric, *FuncVec:
			return true
		}
		return false
	}
	oldFunc, newFunc := isFunc(old), isFunc(m)
	if old.typ() != m.typ() || old.help() != m.help() || oldFunc != newFunc {
		panic("obs: duplicate metric " + m.name())
	}
	if newFunc {
		r.metrics[m.name()] = m
		return m
	}
	return old
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{mname: name, mhelp: help}
	return r.register(c).(*Counter)
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{mname: name, mhelp: help}
	return r.register(g).(*Gauge)
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *FuncMetric {
	f := &FuncMetric{mname: name, mhelp: help, mtyp: "gauge", fn: fn}
	return r.register(f).(*FuncMetric)
}

// NewCounterFunc registers a counter whose value is read at scrape time
// (the backing source must be monotonic).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *FuncMetric {
	f := &FuncMetric{mname: name, mhelp: help, mtyp: "counter", fn: fn}
	return r.register(f).(*FuncMetric)
}

// NewHistogram registers a histogram with the given ascending upper
// bucket bounds (+Inf is added implicitly). Identical re-registration
// returns the existing histogram; the bounds of the first registration
// win.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{mname: name, mhelp: help, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	return r.register(h).(*Histogram)
}

// Get returns a registered metric by name (tests, expvar publication),
// or nil.
func (r *Registry) Get(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	return nil
}

// Sample is one scalar reading of a registered metric, the row format
// of the mqr.metrics system table. Histograms expose two samples
// (name_sum, name_count) rather than their full bucket vectors.
type Sample struct {
	Name  string
	Type  string
	Value float64
}

// Samples reads every metric once, sorted by name. Func-backed metrics
// are evaluated at call time, like a Prometheus scrape.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		if h, ok := m.(*Histogram); ok {
			out = append(out,
				Sample{Name: h.name() + "_sum", Type: "histogram", Value: h.Sum()},
				Sample{Name: h.name() + "_count", Type: "histogram", Value: float64(h.Count())})
			continue
		}
		if v, ok := m.(*HistogramVec); ok {
			for _, k := range v.labelValues() {
				h := v.With(k)
				pair := "{" + labelPair(v.label, k) + "}"
				out = append(out,
					Sample{Name: v.name() + "_sum" + pair, Type: "histogram", Value: h.Sum()},
					Sample{Name: v.name() + "_count" + pair, Type: "histogram", Value: float64(h.Count())})
			}
			continue
		}
		if f, ok := m.(*FuncVec); ok {
			vals := f.Values()
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				out = append(out, Sample{Name: f.name() + "{" + labelPair(f.label, k) + "}", Type: f.typ(), Value: vals[k]})
			}
			continue
		}
		type valuer interface{ Value() float64 }
		if v, ok := m.(valuer); ok {
			out = append(out, Sample{Name: m.name(), Type: m.typ(), Value: v.Value()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name(), m.help(), m.name(), m.typ())
		for _, l := range m.lines() {
			b.WriteString(m.name())
			b.WriteString(l.suffix)
			if l.labels != "" {
				b.WriteByte('{')
				b.WriteString(l.labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(l.value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
