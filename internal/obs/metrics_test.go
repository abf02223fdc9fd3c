package obs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("counter after reset = %d, want 0", c.Value())
	}

	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

// TestHistogramLayout pins the log-linear bucket boundaries: exact
// below 32, then 16 linear sub-buckets per power of two up to 2^40,
// then one overflow bucket.
func TestHistogramLayout(t *testing.T) {
	if histBuckets != 593 {
		t.Errorf("%d buckets, want 592 in range + 1 overflow", histBuckets)
	}
	for v := int64(0); v < 32; v++ {
		if b := bucketOf(v); b != int(v) || bucketMax(b) != v {
			t.Errorf("v=%d: bucket %d max %d, want exact", v, b, bucketMax(b))
		}
	}
	for _, c := range []struct{ v, max int64 }{
		{-5, 0},
		{32, 33}, {33, 33}, {34, 35}, {63, 63},
		{64, 67}, {67, 67}, {68, 71},
		{1000, 1023}, {1024, 1087},
		{HistogramMax - 1, HistogramMax - 1},
		{HistogramMax, HistogramMax}, {1 << 62, HistogramMax},
	} {
		if got := bucketMax(bucketOf(c.v)); got != c.max {
			t.Errorf("v=%d: bucket max %d, want %d", c.v, got, c.max)
		}
	}
	// Every bucket's largest value maps back to it, and the next value
	// starts the next bucket.
	for i := 0; i < histOverflow; i++ {
		if b := bucketOf(bucketMax(i)); b != i {
			t.Fatalf("bucketOf(bucketMax(%d)) = %d", i, b)
		}
		if b := bucketOf(bucketMax(i) + 1); b != i+1 {
			t.Fatalf("bucketOf(bucketMax(%d)+1) = %d, want %d", i, b, i+1)
		}
	}

	var h Histogram
	for _, v := range []int64{-1, 0, 31, 5000, 1 << 41} {
		h.Add(v)
	}
	if h.Total() != 5 || h.Sum() != 31+5000+1<<41 {
		t.Errorf("total %d sum %d", h.Total(), h.Sum())
	}
	edges, counts := h.buckets()
	if want := []int64{0, 31, 5119}; !slices.Equal(edges, want) {
		t.Errorf("edges %v, want %v", edges, want)
	}
	if want := []uint64{2, 1, 1, 1}; !slices.Equal(counts, want) {
		t.Errorf("counts %v, want %v (last is overflow)", counts, want)
	}
}

// exactQuantile is the nearest-rank reference: the sample of rank
// ⌈q·n⌉ in sorted order.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// TestHistogramQuantileBound checks Quantile against exact sorted
// quantiles over seeded random streams and the layout's edge values:
// never below the exact value, at most 1/16 above it, equal below 32,
// and HistogramMax for ranks that overflowed.
func TestHistogramQuantileBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	streams := map[string][]int64{
		"edges": {0, 1, 15, 16, 31, 32, 33, 63, 64, 65, 127, 128, 1023, 1024,
			1<<20 - 1, 1 << 20, 1<<20 + 1, HistogramMax - 1, HistogramMax, HistogramMax + 7},
	}
	for seed := 0; seed < 4; seed++ {
		var uni, exp, logn, small []int64
		for i := 0; i < 5000; i++ {
			uni = append(uni, r.Int63n(1<<30))
			exp = append(exp, int64(2000*r.ExpFloat64()))
			logn = append(logn, int64(math.Exp(6+r.NormFloat64())))
			small = append(small, r.Int63n(40))
		}
		streams[fmt.Sprintf("uniform/%d", seed)] = uni
		streams[fmt.Sprintf("exponential/%d", seed)] = exp
		streams[fmt.Sprintf("lognormal/%d", seed)] = logn
		streams[fmt.Sprintf("small/%d", seed)] = small
	}
	for name, xs := range streams {
		var h Histogram
		for _, x := range xs {
			h.Add(x)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			exact, got := exactQuantile(sorted, q), h.Quantile(q)
			switch {
			case exact >= HistogramMax:
				if got != HistogramMax {
					t.Errorf("%s q=%v: overflow reads %d, want %d", name, q, got, HistogramMax)
				}
			case exact < 32:
				if got != exact {
					t.Errorf("%s q=%v: %d, want exact %d", name, q, got, exact)
				}
			case got < exact || float64(got) > float64(exact)*(1+1.0/16):
				t.Errorf("%s q=%v: %d outside [%d, %d·17/16]", name, q, got, exact, exact)
			}
		}
	}
}

// TestHistogramQuantile pins the rank rule on small inputs: empty reads
// 0, and Quantile(1) is the bucket of the largest sample, not the
// histogram's top.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for i := 0; i < 5; i++ {
		h.Add(3)
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 3 {
			t.Errorf("five samples of 3: q=%v reads %d, want 3", q, got)
		}
	}
	h.Add(1000)
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("p100 = %d, want 1023 (the bucket holding 1000)", got)
	}
	if got := h.Quantile(0.8); got != 3 {
		t.Errorf("p80 = %d, want 3 (rank 5 of 6)", got)
	}

	// Distinct samples: {10,20,30,40,50} has median 30 (exact below
	// 32) and p99 51 (the bucket holding 50).
	var d Histogram
	for _, x := range []int64{30, 10, 50, 20, 40} {
		d.Add(x)
	}
	if p50, p99 := d.Quantile(0.5), d.Quantile(0.99); p50 != 30 || p99 != 51 {
		t.Errorf("{10..50}: p50 %d, p99 %d, want 30, 51", p50, p99)
	}
}

// TestHistogramMerge: merging histograms bucket by bucket equals one
// histogram fed the union of their streams — what SummarizeAttributors
// relies on when it reads percentiles across shards.
func TestHistogramMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var union, merged Histogram
	for part := 0; part < 3; part++ {
		var h Histogram
		for i := 0; i < 1000; i++ {
			v := int64(float64(int64(100)<<(part*4)) * r.ExpFloat64())
			h.Add(v)
			union.Add(v)
		}
		merged.Merge(&h)
	}
	if merged.Total() != union.Total() || merged.Sum() != union.Sum() {
		t.Fatalf("merged total/sum %d/%d, union %d/%d", merged.Total(), merged.Sum(), union.Total(), union.Sum())
	}
	for i := range union.counts {
		if a, b := merged.counts[i].Load(), union.counts[i].Load(); a != b {
			t.Fatalf("bucket %d: merged %d, union %d", i, a, b)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a, b := merged.Quantile(q), union.Quantile(q); a != b {
			t.Errorf("q=%v: merged %d, union %d", q, a, b)
		}
	}
}

// TestHistogramAddNoAllocs gates the hot-path contract of every
// latency recording site.
func TestHistogramAddNoAllocs(t *testing.T) {
	var h Histogram
	var v int64
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 977
		h.Add(v)
	}); allocs != 0 {
		t.Errorf("Add allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", L("level", "l1"))
	b := r.Counter("hits", L("level", "l1"))
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	c := r.Counter("hits", L("level", "l2"))
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
	a.Add(3)
	c.Inc()
	snap := r.Snapshot()
	if v := snap.Value("hits", L("level", "l1")); v != 3 {
		t.Errorf("l1 hits = %v, want 3", v)
	}
	if v := snap.Value("hits", L("level", "l2")); v != 1 {
		t.Errorf("l2 hits = %v, want 1", v)
	}
}

func TestRegistryRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	var first, second Counter
	first.Add(10)
	second.Add(2)
	r.RegisterCounter("reads_total", &first)
	r.RegisterCounter("reads_total", &second)
	snap := r.Snapshot()
	if got := snap.Value("reads_total"); got != 2 {
		t.Errorf("replaced series reads %v, want 2 (the newer instrument)", got)
	}
	if len(snap.Series) != 1 {
		t.Errorf("got %d series, want 1", len(snap.Series))
	}
}

// TestConcurrentIncrements exercises the lock-free hot path from many
// goroutines; run under `go test -race` (the standard check gate does).
// TestMirrorPublish: a mirrored count reaches its series only at
// Publish, and a re-registered series replaces the old one.
func TestMirrorPublish(t *testing.T) {
	reg := NewRegistry()
	m := NewMirror(reg)
	var hits, misses uint64
	m.Counter("hits_total", &hits, L("level", "l1"))
	m.Counter("misses_total", &misses)
	hits, misses = 7, 2
	if v := reg.Snapshot().Value("hits_total", L("level", "l1")); v != 0 {
		t.Errorf("hits_total = %v before Publish, want 0", v)
	}
	m.Publish()
	snap := reg.Snapshot()
	if v := snap.Value("hits_total", L("level", "l1")); v != 7 {
		t.Errorf("hits_total = %v, want 7", v)
	}
	if v := snap.Value("misses_total"); v != 2 {
		t.Errorf("misses_total = %v, want 2", v)
	}
	hits = 0 // a window reset publishes as a drop
	m.Publish()
	if v := reg.Snapshot().Value("hits_total", L("level", "l1")); v != 0 {
		t.Errorf("hits_total = %v after a reset, want 0", v)
	}

	var again uint64 = 3
	NewMirror(reg).Counter("hits_total", &again, L("level", "l1"))
	m.Publish() // the replaced binding no longer reaches the series
	if v := reg.Snapshot().Value("hits_total", L("level", "l1")); v != 0 {
		t.Errorf("hits_total = %v after re-registration, want the new series' 0", v)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent_total")
	g := r.Gauge("level")
	h := r.Histogram("lat_ps")
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Add(int64(i % 2000))
				// Concurrent get-or-create of the same series must
				// also be safe.
				r.Counter("concurrent_total")
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
	if h.Total() != workers*perWorker {
		t.Errorf("histogram total = %d, want %d", h.Total(), workers*perWorker)
	}
	// Every worker added 0..1999 five times over: exact sum and exact
	// per-bucket counts, no lost updates.
	if want := int64(workers * 5 * 1999 * 2000 / 2); h.Sum() != want {
		t.Errorf("histogram sum = %d, want %d", h.Sum(), want)
	}
	for v := int64(0); v < 32; v++ {
		if got := h.counts[v].Load(); got != workers*5 {
			t.Errorf("bucket %d = %d, want %d", v, got, workers*5)
		}
	}
	if got, want := h.Quantile(0.5), int64(1023); got != want {
		t.Errorf("histogram p50 = %d, want %d", got, want)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Counter("aa", L("x", "2"))
	r.Counter("aa", L("x", "1"))
	r.Gauge("mm")
	snap := r.Snapshot()
	var ids []string
	for _, s := range snap.Series {
		ids = append(ids, s.ID())
	}
	want := []string{`aa{x="1"}`, `aa{x="2"}`, "mm", "zz"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
}
