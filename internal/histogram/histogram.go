// Package histogram implements the histogram families the paper's
// estimation machinery depends on: equi-width, equi-depth, MaxDiff(V,A)
// (Poosala et al. 1996 — the family Paradise stores in its catalogs), and
// end-biased serial histograms. It also provides the selectivity
// estimators the optimizer uses for selection and join predicates.
//
// Values are bucketed through their float image (types.Value.AsFloat), so
// dates and integers bucket naturally and strings bucket by hash, which
// supports equality estimation but not meaningful string ranges — the
// same practical restriction real systems of the era had.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/types"
)

// Family identifies the histogram construction algorithm. The paper's
// inaccuracy-potential rules (§2.5) grade estimate quality by family:
// serial-class histograms (MaxDiff, end-biased) are "low" inaccuracy,
// equi-width and equi-depth are "medium", and no histogram is "high".
type Family uint8

// The supported histogram families. MaxDiff is the zero value because it
// is the family Paradise's catalogs default to.
const (
	MaxDiff Family = iota
	EndBiased
	EquiWidth
	EquiDepth
)

var familyNames = [...]string{"maxdiff", "end-biased", "equi-width", "equi-depth"}

// String returns the family name.
func (f Family) String() string {
	if int(f) < len(familyNames) {
		return familyNames[f]
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// AccuracyClass buckets families into the paper's three estimate-quality
// grades. Serial-class histograms group attribute values by frequency
// (Poosala–Ioannidis taxonomy), which is what the paper means by "serial
// histogram".
type AccuracyClass uint8

// Accuracy classes, ordered from most to least accurate.
const (
	ClassSerial AccuracyClass = iota
	ClassBucketed
	ClassNone
)

// Class returns the family's accuracy class.
func (f Family) Class() AccuracyClass {
	switch f {
	case MaxDiff, EndBiased:
		return ClassSerial
	default:
		return ClassBucketed
	}
}

// Bucket is one histogram bucket over the closed interval [Lo, Hi].
type Bucket struct {
	Lo, Hi   float64
	Count    float64 // tuples in the bucket
	Distinct float64 // distinct values in the bucket
}

// Histogram summarizes one attribute's value distribution.
type Histogram struct {
	Family  Family
	Buckets []Bucket
	Total   float64 // total tuples summarized
	// TotalDistinct is the distinct-value count across all buckets.
	TotalDistinct float64
}

// Min returns the smallest summarized value, or NaN if empty.
func (h *Histogram) Min() float64 {
	if len(h.Buckets) == 0 {
		return math.NaN()
	}
	return h.Buckets[0].Lo
}

// Max returns the largest summarized value, or NaN if empty.
func (h *Histogram) Max() float64 {
	if len(h.Buckets) == 0 {
		return math.NaN()
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// String renders a compact diagnostic form.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{n=%.0f d=%.0f", h.Family, h.Total, h.TotalDistinct)
	for i, bk := range h.Buckets {
		if i >= 4 {
			fmt.Fprintf(&b, " …%d more", len(h.Buckets)-i)
			break
		}
		fmt.Fprintf(&b, " [%g,%g]:%.0f", bk.Lo, bk.Hi, bk.Count)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedFloats extracts, filters, and sorts the float images of values.
func sortedFloats(values []types.Value) []float64 {
	fs := make([]float64, 0, len(values))
	for _, v := range values {
		f := v.AsFloat()
		if !math.IsNaN(f) {
			fs = append(fs, f)
		}
	}
	sort.Float64s(fs)
	return fs
}

// runs compresses a sorted slice into (value, frequency) pairs.
type run struct {
	v float64
	n float64
}

func toRuns(fs []float64) []run {
	var rs []run
	for _, f := range fs {
		if len(rs) > 0 && rs[len(rs)-1].v == f {
			rs[len(rs)-1].n++
		} else {
			rs = append(rs, run{v: f, n: 1})
		}
	}
	return rs
}

// scale multiplies every bucket count so the histogram summarizes total
// tuples. Histograms built from a reservoir sample of a larger stream are
// scaled up to the observed stream cardinality.
func (h *Histogram) scale(total float64) {
	if h.Total <= 0 || total == h.Total {
		return
	}
	f := total / h.Total
	for i := range h.Buckets {
		h.Buckets[i].Count *= f
	}
	h.Total = total
}

// Scaled returns a copy of the histogram whose counts are scaled to
// summarize total tuples, preserving bucket boundaries and distinct
// counts. The re-optimizer uses it to project an observed histogram
// through a join whose output cardinality it has estimated.
func (h *Histogram) Scaled(total float64) *Histogram {
	c := &Histogram{
		Family:        h.Family,
		Buckets:       append([]Bucket(nil), h.Buckets...),
		Total:         h.Total,
		TotalDistinct: h.TotalDistinct,
	}
	c.scale(total)
	return c
}

// Clone returns a deep copy of the histogram. Incremental stats
// maintenance clones before mutating so published histograms stay
// immutable for concurrent readers.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		Family:        h.Family,
		Buckets:       append([]Bucket(nil), h.Buckets...),
		Total:         h.Total,
		TotalDistinct: h.TotalDistinct,
	}
}

// bucketFor returns the index of the bucket whose interval contains f,
// or -1 if f falls outside every bucket.
func (h *Histogram) bucketFor(f float64) int {
	for i := range h.Buckets {
		if f >= h.Buckets[i].Lo && f <= h.Buckets[i].Hi {
			return i
		}
	}
	return -1
}

// AddValue folds one inserted value into the histogram in place,
// incrementing the containing bucket's count. Values outside the
// histogram's range extend the boundary bucket (and its distinct count,
// since a value beyond the old min/max is necessarily new). Values in a
// gap between buckets are credited to the nearest bucket. Bucket
// boundaries are otherwise not re-balanced — the histogram drifts from
// what a fresh build would produce, which is exactly the staleness
// ANALYZE repairs.
func (h *Histogram) AddValue(v types.Value) {
	f := v.AsFloat()
	if math.IsNaN(f) {
		return
	}
	h.Total++
	if len(h.Buckets) == 0 {
		h.Buckets = []Bucket{{Lo: f, Hi: f, Count: 1, Distinct: 1}}
		h.TotalDistinct = 1
		return
	}
	if i := h.bucketFor(f); i >= 0 {
		h.Buckets[i].Count++
		return
	}
	switch {
	case f < h.Buckets[0].Lo:
		h.Buckets[0].Lo = f
		h.Buckets[0].Count++
		h.Buckets[0].Distinct++
		h.TotalDistinct++
	case f > h.Buckets[len(h.Buckets)-1].Hi:
		last := len(h.Buckets) - 1
		h.Buckets[last].Hi = f
		h.Buckets[last].Count++
		h.Buckets[last].Distinct++
		h.TotalDistinct++
	default:
		// In a gap between two buckets: extend whichever is closer.
		for i := 0; i+1 < len(h.Buckets); i++ {
			if f > h.Buckets[i].Hi && f < h.Buckets[i+1].Lo {
				if f-h.Buckets[i].Hi <= h.Buckets[i+1].Lo-f {
					h.Buckets[i].Hi = f
					h.Buckets[i].Count++
					h.Buckets[i].Distinct++
				} else {
					h.Buckets[i+1].Lo = f
					h.Buckets[i+1].Count++
					h.Buckets[i+1].Distinct++
				}
				h.TotalDistinct++
				return
			}
		}
	}
}

// RemoveValue folds one deleted value out of the histogram in place,
// decrementing the containing bucket's count. Distinct counts are left
// untouched — without per-value frequencies a delete cannot know whether
// it removed the last occurrence.
func (h *Histogram) RemoveValue(v types.Value) {
	f := v.AsFloat()
	if math.IsNaN(f) {
		return
	}
	if h.Total > 0 {
		h.Total--
	}
	if i := h.bucketFor(f); i >= 0 && h.Buckets[i].Count > 0 {
		h.Buckets[i].Count--
	}
}

// Build constructs a histogram of the given family with at most buckets
// buckets over the sample. If streamTotal > 0 and differs from the sample
// size, bucket counts are scaled to summarize streamTotal tuples (and,
// for distinct counts, left as observed in the sample — a deliberate
// under-estimate matching the sampling literature's guidance).
func Build(f Family, values []types.Value, buckets int, streamTotal float64) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	fs := sortedFloats(values)
	var h *Histogram
	switch f {
	case EquiWidth:
		h = buildEquiWidth(fs, buckets)
	case EquiDepth:
		h = buildEquiDepth(fs, buckets)
	case MaxDiff:
		h = buildMaxDiff(fs, buckets)
	case EndBiased:
		h = buildEndBiased(fs, buckets)
	default:
		h = buildEquiWidth(fs, buckets)
	}
	if streamTotal > 0 {
		h.scale(streamTotal)
	}
	return h
}

func emptyHist(f Family) *Histogram { return &Histogram{Family: f} }

func buildEquiWidth(fs []float64, nb int) *Histogram {
	h := emptyHist(EquiWidth)
	if len(fs) == 0 {
		return h
	}
	lo, hi := fs[0], fs[len(fs)-1]
	if lo == hi {
		h.Buckets = []Bucket{{Lo: lo, Hi: hi, Count: float64(len(fs)), Distinct: 1}}
		h.Total = float64(len(fs))
		h.TotalDistinct = 1
		return h
	}
	width := (hi - lo) / float64(nb)
	bks := make([]Bucket, nb)
	for i := range bks {
		bks[i].Lo = lo + width*float64(i)
		bks[i].Hi = lo + width*float64(i+1)
	}
	bks[nb-1].Hi = hi
	i := 0
	var prev float64 = math.NaN()
	for _, f := range fs {
		for i < nb-1 && f > bks[i].Hi {
			i++
			prev = math.NaN()
		}
		bks[i].Count++
		if f != prev {
			bks[i].Distinct++
			prev = f
		}
	}
	h.Buckets = compact(bks)
	h.finish(fs)
	return h
}

func buildEquiDepth(fs []float64, nb int) *Histogram {
	h := emptyHist(EquiDepth)
	if len(fs) == 0 {
		return h
	}
	per := len(fs) / nb
	if per < 1 {
		per = 1
	}
	var bks []Bucket
	for start := 0; start < len(fs); {
		end := start + per
		if end > len(fs) {
			end = len(fs)
		}
		// Extend so a value never straddles buckets.
		for end < len(fs) && fs[end] == fs[end-1] {
			end++
		}
		b := Bucket{Lo: fs[start], Hi: fs[end-1], Count: float64(end - start)}
		b.Distinct = countDistinct(fs[start:end])
		bks = append(bks, b)
		start = end
	}
	h.Buckets = bks
	h.finish(fs)
	return h
}

// buildMaxDiff implements MaxDiff(V,A): bucket boundaries are placed at
// the nb-1 largest differences in "area" (frequency × spread) between
// successive attribute values, isolating frequency outliers in their own
// buckets. This is the histogram family Paradise's catalogs use.
func buildMaxDiff(fs []float64, nb int) *Histogram {
	h := emptyHist(MaxDiff)
	if len(fs) == 0 {
		return h
	}
	rs := toRuns(fs)
	if len(rs) <= nb {
		// One bucket per distinct value: exact.
		for _, r := range rs {
			h.Buckets = append(h.Buckets, Bucket{Lo: r.v, Hi: r.v, Count: r.n, Distinct: 1})
		}
		h.finish(fs)
		return h
	}
	// Area of value i = freq(i) * spread(i); spread = distance to next
	// distinct value (1 for the last).
	type diff struct {
		idx int // boundary after rs[idx]
		gap float64
	}
	diffs := make([]diff, 0, len(rs)-1)
	for i := 0; i+1 < len(rs); i++ {
		spreadI := 1.0
		if i+1 < len(rs) {
			spreadI = rs[i+1].v - rs[i].v
		}
		spreadJ := 1.0
		if i+2 < len(rs) {
			spreadJ = rs[i+2].v - rs[i+1].v
		}
		gap := math.Abs(rs[i+1].n*spreadJ - rs[i].n*spreadI)
		diffs = append(diffs, diff{idx: i, gap: gap})
	}
	sort.Slice(diffs, func(a, b int) bool { return diffs[a].gap > diffs[b].gap })
	cut := map[int]bool{}
	for i := 0; i < nb-1 && i < len(diffs); i++ {
		cut[diffs[i].idx] = true
	}
	var bks []Bucket
	cur := Bucket{Lo: rs[0].v}
	for i, r := range rs {
		cur.Hi = r.v
		cur.Count += r.n
		cur.Distinct++
		if cut[i] || i == len(rs)-1 {
			bks = append(bks, cur)
			if i+1 < len(rs) {
				cur = Bucket{Lo: rs[i+1].v}
			}
		}
	}
	h.Buckets = bks
	h.finish(fs)
	return h
}

// buildEndBiased keeps the nb-1 most frequent values in singleton buckets
// and pools everything else into spanning buckets with averaged
// frequencies — the classic end-biased serial histogram. Under skew the
// heavy hitters dominate, which is why the paper observes serial
// histogram accuracy *improving* as Zipf z grows.
func buildEndBiased(fs []float64, nb int) *Histogram {
	h := emptyHist(EndBiased)
	if len(fs) == 0 {
		return h
	}
	rs := toRuns(fs)
	if len(rs) <= nb {
		for _, r := range rs {
			h.Buckets = append(h.Buckets, Bucket{Lo: r.v, Hi: r.v, Count: r.n, Distinct: 1})
		}
		h.finish(fs)
		return h
	}
	// Find the frequency threshold for the top nb-1 values.
	freqs := make([]float64, len(rs))
	for i, r := range rs {
		freqs[i] = r.n
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	k := nb - 1
	if k < 1 {
		k = 1
	}
	threshold := freqs[k-1]
	singled := map[int]bool{}
	picked := 0
	for i, r := range rs {
		if r.n >= threshold && picked < k {
			singled[i] = true
			picked++
		}
	}
	var bks []Bucket
	var pool *Bucket
	flushPool := func() {
		if pool != nil {
			bks = append(bks, *pool)
			pool = nil
		}
	}
	for i, r := range rs {
		if singled[i] {
			flushPool()
			bks = append(bks, Bucket{Lo: r.v, Hi: r.v, Count: r.n, Distinct: 1})
			continue
		}
		if pool == nil {
			pool = &Bucket{Lo: r.v}
		}
		pool.Hi = r.v
		pool.Count += r.n
		pool.Distinct++
	}
	flushPool()
	h.Buckets = bks
	h.finish(fs)
	return h
}

func countDistinct(fs []float64) float64 {
	d := 0.0
	for i, f := range fs {
		if i == 0 || f != fs[i-1] {
			d++
		}
	}
	return d
}

func compact(bks []Bucket) []Bucket {
	out := bks[:0]
	for _, b := range bks {
		if b.Count > 0 {
			out = append(out, b)
		}
	}
	return out
}

func (h *Histogram) finish(fs []float64) {
	h.Total = float64(len(fs))
	h.TotalDistinct = countDistinct(fs)
}
