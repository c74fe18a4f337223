package obs

import (
	"sort"
	"strconv"
	"sync"
)

// labelPair renders one label="value" pair with Prometheus escaping.
func labelPair(label, value string) string {
	return label + "=" + strconv.Quote(value)
}

// FuncVec is a labeled metric family whose per-label values are read at
// scrape time from one backing function — the fit for state that is
// already keyed elsewhere, like the broker's per-tenant queue depths.
// Like FuncMetric, re-registration rebinds the closure.
type FuncVec struct {
	mname, mhelp, mtyp, label string
	fn                        func() map[string]float64
}

// Values calls the backing function.
func (f *FuncVec) Values() map[string]float64 { return f.fn() }

func (f *FuncVec) name() string { return f.mname }
func (f *FuncVec) help() string { return f.mhelp }
func (f *FuncVec) typ() string  { return f.mtyp }

func (f *FuncVec) lines() []promLine {
	vals := f.fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]promLine, 0, len(keys))
	for _, k := range keys {
		out = append(out, promLine{labels: labelPair(f.label, k), value: vals[k]})
	}
	return out
}

// NewGaugeFuncVec registers a labeled gauge family read at scrape time:
// the function returns one value per label (e.g. per tenant).
func (r *Registry) NewGaugeFuncVec(name, help, label string, fn func() map[string]float64) *FuncVec {
	f := &FuncVec{mname: name, mhelp: help, mtyp: "gauge", label: label, fn: fn}
	return r.register(f).(*FuncVec)
}

// HistogramVec is a family of histograms sharing one name and bucket
// layout, split by a single label — per-tenant broker-wait latency.
// Children spring into existence on first observation.
type HistogramVec struct {
	mname, mhelp, label string
	bounds              []float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// Observe records one sample under the given label value.
func (v *HistogramVec) Observe(labelValue string, x float64) {
	v.With(labelValue).Observe(x)
}

// With returns (creating if needed) the child histogram for one label
// value.
func (v *HistogramVec) With(labelValue string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[labelValue]
	if !ok {
		h = &Histogram{mname: v.mname, mhelp: v.mhelp, bounds: v.bounds, counts: make([]uint64, len(v.bounds)+1)}
		v.children[labelValue] = h
	}
	return h
}

func (v *HistogramVec) name() string { return v.mname }
func (v *HistogramVec) help() string { return v.mhelp }
func (v *HistogramVec) typ() string  { return "histogram" }

// labelValues lists the children's label values, sorted.
func (v *HistogramVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (v *HistogramVec) lines() []promLine {
	var out []promLine
	for _, k := range v.labelValues() {
		pair := labelPair(v.label, k)
		for _, l := range v.With(k).lines() {
			if l.labels != "" {
				l.labels = pair + "," + l.labels
			} else {
				l.labels = pair
			}
			out = append(out, l)
		}
	}
	return out
}

// NewHistogramVec registers a labeled histogram family with the given
// ascending upper bucket bounds (+Inf implicit). Identical
// re-registration returns the existing family.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{mname: name, mhelp: help, label: label, bounds: bounds, children: map[string]*Histogram{}}
	return r.register(v).(*HistogramVec)
}
