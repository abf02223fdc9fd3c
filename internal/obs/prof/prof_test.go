package prof

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// exactQuantile is the nearest-rank reference the probe's quantiles
// are graded against: the sample of rank ⌈p·n⌉ in sorted order.
func exactQuantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// checkBound requires got to be the histogram reading of exact: never
// below it, at most 1/16 above it.
func checkBound(t *testing.T, what string, got, exact int64) {
	t.Helper()
	if got < exact || float64(got) > float64(exact)*(1+1.0/16) {
		t.Errorf("%s: %d outside [%d, %d·17/16]", what, got, exact, exact)
	}
}

// TestProbeGoldenQuantiles feeds fixed-seed streams from three shapes
// of distribution through a probe and requires its p50/p90/p99 to
// hold the histogram bound against the exact quantiles, heavy tail
// included.
func TestProbeGoldenQuantiles(t *testing.T) {
	dists := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return 1000 + 9000*r.Float64() }},
		{"exponential", func(r *rand.Rand) float64 { return 500 * r.ExpFloat64() }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(6 + 1.0*r.NormFloat64()) }},
	}
	const n = 20000
	for _, d := range dists {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			p := NewProbe(1)
			samples := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				x := int64(d.gen(r))
				samples = append(samples, x)
				p.Observe(x)
			}
			slices.Sort(samples)
			s := p.Snapshot()
			for q, got := range map[float64]int64{0.50: s.P50, 0.90: s.P90, 0.99: s.P99} {
				checkBound(t, fmt.Sprintf("%s seed %d p%.0f", d.name, seed, q*100), got, exactQuantile(samples, q))
			}
		}
	}
}

// TestProbeSmallStreams pins short streams: an empty probe reads 0,
// and a handful of samples read their exact nearest-rank quantiles
// (exact below 32, within the bound above).
func TestProbeSmallStreams(t *testing.T) {
	p := NewProbe(1)
	if got := p.Snapshot().P50; got != 0 {
		t.Fatalf("empty probe p50 = %v, want 0", got)
	}
	p.Observe(10)
	if got := p.Snapshot().P50; got != 10 {
		t.Fatalf("single-sample p50 = %v, want 10", got)
	}
	for _, x := range []int64{30, 20, 50, 40} {
		p.Observe(x)
	}
	// 5 samples {10,20,30,40,50}: the median is 30, the p99 is 50.
	s := p.Snapshot()
	if s.P50 != 30 {
		t.Fatalf("5-sample p50 = %v, want 30", s.P50)
	}
	checkBound(t, "5-sample p99", s.P99, 50)
}

// TestProbeSampling pins the 1-in-N contract: every observation is
// counted, only one in SampleEvery reads the clock and folds.
func TestProbeSampling(t *testing.T) {
	p := NewProbe(8)
	if got := p.SampleEvery(); got != 8 {
		t.Fatalf("SampleEvery = %d, want 8", got)
	}
	starts := 0
	for i := 0; i < 64; i++ {
		if t0 := p.Start(); t0 != 0 {
			starts++
			p.Done(t0)
		}
	}
	if starts != 8 {
		t.Fatalf("sampled %d of 64 observations, want 8", starts)
	}
	if got := p.Count(); got != 64 {
		t.Fatalf("Count = %d, want 64", got)
	}
	if s := p.Snapshot(); s.Sampled != 8 {
		t.Fatalf("snapshot sampled=%d, want 8", s.Sampled)
	}

	// Non-power-of-two periods round up.
	if got := NewProbe(5).SampleEvery(); got != 8 {
		t.Fatalf("NewProbe(5).SampleEvery = %d, want 8", got)
	}
	if got := NewProbe(1).SampleEvery(); got != 1 {
		t.Fatalf("NewProbe(1).SampleEvery = %d, want 1", got)
	}
}

// TestProbeNilSafe: a nil probe (and a nil profiler) must be usable as
// a disabled instrument from every call site.
func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	if t0 := p.Start(); t0 != 0 {
		t.Fatalf("nil probe Start = %d, want 0", t0)
	}
	p.Done(0)
	p.DoneN(0, 4)
	p.Observe(7)
	if p.EWMA() != 0 || p.Count() != 0 || p.SampleEvery() != 0 {
		t.Fatal("nil probe accessors must read zero")
	}
	if s := p.Snapshot(); s != (ProbeSnapshot{}) {
		t.Fatalf("nil probe snapshot = %+v, want zero", s)
	}

	var pf *Profiler
	pf.Register(nil)
	if s := pf.Snapshot(); s.Backend != "" || s.PadBatch.Count != 0 {
		t.Fatal("nil profiler snapshot must be zero")
	}
}

// TestProbeEWMA checks convergence: a constant stream converges to the
// constant, and a step change moves the estimate toward the new level.
func TestProbeEWMA(t *testing.T) {
	p := NewProbe(1)
	for i := 0; i < 100; i++ {
		p.Observe(1000)
	}
	if got := p.EWMA(); got != 1000 {
		t.Fatalf("constant-stream EWMA = %v, want 1000", got)
	}
	for i := 0; i < 100; i++ {
		p.Observe(2000)
	}
	if got := p.EWMA(); got < 1990 || got > 2000 {
		t.Fatalf("post-step EWMA = %v, want ≈2000", got)
	}
}

// TestProbeConcurrent hammers one probe from many goroutines: no
// torn state, every selected sample is folded (none dropped), and the
// estimates stay within the observed value range.
func TestProbeConcurrent(t *testing.T) {
	p := NewProbe(4)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Observe(int64(100 + (w+i)%100))
			}
		}(w)
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	if s.Sampled != s.Count/4 {
		t.Fatalf("sampled %d != selected %d", s.Sampled, s.Count/4)
	}
	if s.EWMA < 100 || s.EWMA > 199 {
		t.Fatalf("EWMA %v outside observed range [100, 199]", s.EWMA)
	}
	if s.P50 < 100 || s.P99 > 199 {
		t.Fatalf("quantiles p50=%v p99=%v outside observed range", s.P50, s.P99)
	}
}

// TestProbeNoAllocs gates the hot-path contract: Start/Done and
// Observe must not allocate, sampled or not.
func TestProbeNoAllocs(t *testing.T) {
	p := NewProbe(4)
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Done(p.Start())
	}); allocs != 0 {
		t.Errorf("Start/Done allocates %.1f per op, want 0", allocs)
	}
	var v int64
	if allocs := testing.AllocsPerRun(1000, func() {
		v++
		p.Observe(v)
	}); allocs != 0 {
		t.Errorf("Observe allocates %.1f per op, want 0", allocs)
	}
}
