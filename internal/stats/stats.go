// Package stats provides the measurement plumbing shared by the
// simulator: counters, fixed-bin histograms (Fig. 8's arrival-delta
// distribution), and normalized-performance helpers used by every
// figure of the evaluation.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin histogram over int64 samples (picoseconds
// in the simulator). Bin i covers [edges[i-1], edges[i]); samples
// below the first edge land in bin 0 and samples at or above the last
// edge land in the overflow bin.
type Histogram struct {
	edges  []int64
	counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending bin edges.
func NewHistogram(edges ...int64) (*Histogram, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges not ascending at %d", i)
		}
	}
	return &Histogram{
		edges:  append([]int64(nil), edges...),
		counts: make([]uint64, len(edges)+1),
	}, nil
}

// FromBins reconstructs a Histogram from edges and per-bin counts
// (len(edges)+1 entries, the last being the overflow bin). The
// simulator builds Fig. 8's histogram with it from its four atomic
// arrival-delta counters.
func FromBins(edges []int64, counts []uint64) (*Histogram, error) {
	h, err := NewHistogram(edges...)
	if err != nil {
		return nil, err
	}
	if len(counts) != len(edges)+1 {
		return nil, fmt.Errorf("stats: %d counts for %d edges (want %d)", len(counts), len(edges), len(edges)+1)
	}
	copy(h.counts, counts)
	for _, c := range counts {
		h.total += c
	}
	return h, nil
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	i := sort.Search(len(h.edges), func(i int) bool { return v < h.edges[i] })
	h.counts[i]++
	h.total++
}

// Bins returns the per-bin counts: len(edges)+1 entries, the last
// being the overflow bin.
func (h *Histogram) Bins() []uint64 { return append([]uint64(nil), h.counts...) }

// Fractions returns each bin's share of the total (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// FractionAbove returns the share of samples >= v.
func (h *Histogram) FractionAbove(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	// Conservative: count whole bins whose lower edge >= v.
	var n uint64
	for i := range h.counts {
		lower := int64(math.MinInt64)
		if i > 0 {
			lower = h.edges[i-1]
		}
		if lower >= v {
			n += h.counts[i]
		}
	}
	return float64(n) / float64(h.total)
}

// String renders the histogram for logs.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.counts {
		switch {
		case i == 0:
			fmt.Fprintf(&b, "(-inf,%d): %d\n", h.edges[0], c)
		case i == len(h.edges):
			fmt.Fprintf(&b, "[%d,+inf): %d\n", h.edges[len(h.edges)-1], c)
		default:
			fmt.Fprintf(&b, "[%d,%d): %d\n", h.edges[i-1], h.edges[i], c)
		}
	}
	return b.String()
}

// Mean of recorded samples via per-bin midpoints is too lossy for our
// use; the simulator tracks exact sums separately with Accumulator.

// Accumulator tracks count/sum/min/max of a stream of int64 samples.
type Accumulator struct {
	N        uint64
	Sum      int64
	Min, Max int64
}

// Add records a sample.
func (a *Accumulator) Add(v int64) {
	if a.N == 0 || v < a.Min {
		a.Min = v
	}
	if a.N == 0 || v > a.Max {
		a.Max = v
	}
	a.N++
	a.Sum += v
}

// Mean returns the average, or 0 with no samples.
func (a *Accumulator) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.N)
}

// GeoMean returns the geometric mean of a slice of positive values —
// the conventional way to average normalized performance across
// workloads.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
