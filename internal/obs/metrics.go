package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing event count with atomic
// increments. The zero value is ready to use. A Counter must not be
// copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (per-measurement-window accounting; the
// simulator's windows reset, unlike long-lived Prometheus counters).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous level (queue depth, backlog) with atomic
// updates. The zero value is ready to use. A Gauge must not be copied
// after first use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// Histogram layout: values below 2·histSub are exact (one bucket per
// value); every power of two above that splits into histSub linear
// sub-buckets, so no bucket is wider than 1/histSub of its lower
// bound. Samples at or above HistogramMax share one overflow bucket.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // linear sub-buckets per power of two
	histTopBits = 40

	// HistogramMax is the exclusive upper bound of the in-range
	// buckets (2^40: about 18 minutes in nanoseconds).
	HistogramMax = int64(1) << histTopBits

	histOverflow = (histTopBits - histSubBits + 1) * histSub // index of the overflow bucket
	histBuckets  = histOverflow + 1
)

// bucketOf maps a sample to its bucket index. Negative samples count
// as 0.
func bucketOf(v int64) int {
	switch {
	case v < histSub:
		return int(max(v, 0))
	case v >= HistogramMax:
		return histOverflow
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift<<histSubBits + int(v>>shift)
}

// bucketMax is the largest value bucket i holds (HistogramMax for the
// overflow bucket): a quantile reading never below the true value and
// at most 1/histSub above it.
func bucketMax(i int) int64 {
	switch {
	case i < histSub:
		return int64(i)
	case i >= histOverflow:
		return HistogramMax
	}
	shift := i>>histSubBits - 1
	lower := int64(i&(histSub-1)|histSub) << shift
	return lower + 1<<shift - 1
}

// Histogram is a log-linear histogram over non-negative int64 samples
// (latencies, sizes, trial counts) with one inline atomic counter per
// bucket, so Add is lock-free and allocation-free. The layout is fixed
// (see HistogramMax), so histograms merge bucket by bucket and need no
// configuration: the zero value is ready to use. A Histogram must not
// be copied after first use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
}

// Add records one sample; negative samples count as 0.
func (h *Histogram) Add(v int64) {
	v = max(v, 0)
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Merge adds every sample o recorded into h, bucket by bucket.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(o.total.Load())
	h.sum.Add(o.sum.Load())
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total.Load() }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the largest value of the bucket holding the sample
// of rank ⌈q·n⌉ (nearest rank): never below the true quantile and at
// most 1/16 above it, exact below 32; HistogramMax when that sample
// overflowed. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n == 0 {
		return 0
	}
	rank := uint64(1)
	if r := math.Ceil(q * float64(n)); r > 1 {
		rank = min(uint64(r), n)
	}
	var cum uint64
	for i := range h.counts {
		// Concurrent Adds only raise the counts, so cum reaches rank.
		if cum += h.counts[i].Load(); cum >= rank {
			return bucketMax(i)
		}
	}
	return HistogramMax
}

// buckets returns the non-empty in-range buckets as (largest value,
// count) pairs in ascending order, plus the overflow count as the last
// count: len(counts) == len(edges)+1.
func (h *Histogram) buckets() (edges []int64, counts []uint64) {
	for i := 0; i < histOverflow; i++ {
		if c := h.counts[i].Load(); c != 0 {
			edges = append(edges, bucketMax(i))
			counts = append(counts, c)
		}
	}
	return edges, append(counts, h.counts[histOverflow].Load())
}

// Series kinds in snapshots and expositions.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// series is one registered (name, labels) -> instrument binding.
type series struct {
	name   string
	labels []Label // sorted by key
	key    string  // canonical name+labels identity
	kind   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a collection of metric series. Registration takes a
// mutex; reads and writes of registered instruments are lock-free.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	sorted bool
	order  []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

func canonLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

// add installs (or replaces) a series. Replacement semantics let a
// fresh run re-register its components over a stale run's series; use
// labels (e.g. scheme=...) to keep multiple runs side by side.
func (r *Registry) add(s *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[s.key]; ok {
		*old = *s
		return old
	}
	r.byKey[s.key] = s
	r.order = append(r.order, s)
	r.sorted = false
	return s
}

// lookup returns the existing series for key, if any.
func (r *Registry) lookup(key string) (*series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byKey[key]
	return s, ok
}

// RegisterCounter binds an existing Counter into the registry,
// replacing any series with the same name and labels.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	ls := canonLabels(labels)
	r.add(&series{name: name, labels: ls, key: seriesKey(name, ls), kind: KindCounter, c: c})
}

// RegisterGauge binds an existing Gauge into the registry.
func (r *Registry) RegisterGauge(name string, g *Gauge, labels ...Label) {
	ls := canonLabels(labels)
	r.add(&series{name: name, labels: ls, key: seriesKey(name, ls), kind: KindGauge, g: g})
}

// RegisterHistogram binds an existing Histogram into the registry.
func (r *Registry) RegisterHistogram(name string, h *Histogram, labels ...Label) {
	ls := canonLabels(labels)
	r.add(&series{name: name, labels: ls, key: seriesKey(name, ls), kind: KindHistogram, h: h})
}

// Counter returns the counter registered under (name, labels),
// creating it if absent.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	if s, ok := r.lookup(key); ok && s.kind == KindCounter {
		return s.c
	}
	c := &Counter{}
	r.add(&series{name: name, labels: ls, key: key, kind: KindCounter, c: c})
	return c
}

// Gauge returns the gauge registered under (name, labels), creating
// it if absent.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	if s, ok := r.lookup(key); ok && s.kind == KindGauge {
		return s.g
	}
	g := &Gauge{}
	r.add(&series{name: name, labels: ls, key: key, kind: KindGauge, g: g})
	return g
}

// Histogram returns the histogram registered under (name, labels),
// creating it if absent.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	if s, ok := r.lookup(key); ok && s.kind == KindHistogram {
		return s.h
	}
	h := &Histogram{}
	r.add(&series{name: name, labels: ls, key: key, kind: KindHistogram, h: h})
	return h
}

// Series is one metric series in a Snapshot. For counters and gauges
// Value holds the reading; for histograms Value is the sample total
// and Edges/Counts/Sum carry the distribution: Edges holds the largest
// value of each non-empty bucket, Counts its count, and one extra last
// count holds the overflow bucket.
type Series struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Edges  []int64           `json:"edges,omitempty"`
	Counts []uint64          `json:"counts,omitempty"`
	Sum    int64             `json:"sum,omitempty"`
}

// labelString renders labels as {k="v",...} for sorting and display.
func (s Series) labelString() string {
	if len(s.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ID is the series' stable identity: name plus sorted labels.
func (s Series) ID() string { return s.Name + s.labelString() }

// Quantile reads a quantile from a snapshotted histogram series, with
// the same result Histogram.Quantile gave on the live histogram (0 for
// non-histogram series).
func (s Series) Quantile(q float64) int64 {
	if s.Kind != KindHistogram {
		return 0
	}
	var h Histogram
	for i, c := range s.Counts {
		b := histOverflow
		if i < len(s.Edges) {
			b = bucketOf(s.Edges[i])
		}
		h.counts[b].Add(c)
	}
	return h.Quantile(q)
}

// Snapshot is a point-in-time copy of every series in a registry,
// sorted by name then labels for deterministic output.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Snapshot copies the current value of every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	if !r.sorted {
		sort.SliceStable(r.order, func(i, j int) bool { return r.order[i].key < r.order[j].key })
		r.sorted = true
	}
	order := append([]*series(nil), r.order...)
	r.mu.Unlock()

	snap := Snapshot{Series: make([]Series, 0, len(order))}
	for _, s := range order {
		out := Series{Name: s.name, Kind: s.kind}
		if len(s.labels) > 0 {
			out.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				out.Labels[l.Key] = l.Value
			}
		}
		switch s.kind {
		case KindCounter:
			out.Value = float64(s.c.Value())
		case KindGauge:
			out.Value = float64(s.g.Value())
		case KindHistogram:
			out.Edges, out.Counts = s.h.buckets()
			out.Sum = s.h.Sum()
			out.Value = float64(s.h.Total())
		}
		snap.Series = append(snap.Series, out)
	}
	return snap
}

// Get returns the first series whose name matches and whose labels
// include every given label (subset match). ok is false when absent.
func (s Snapshot) Get(name string, labels ...Label) (Series, bool) {
	for _, se := range s.Series {
		if se.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			if se.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			return se, true
		}
	}
	return Series{}, false
}

// Value is Get reduced to the numeric reading (0 when absent).
func (s Snapshot) Value(name string, labels ...Label) float64 {
	se, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return se.Value
}
