package cache

import (
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, size, block uint64, ways int) *Cache {
	t.Helper()
	c, err := New(size, block, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		size, block uint64
		ways        int
	}{
		{0, 64, 4},
		{1024, 0, 4},
		{1024, 64, 0},
		{1024, 64, 5},   // 16 lines not divisible by 5
		{3 * 64, 64, 1}, // 3 sets: not a power of two
	}
	for _, tc := range cases {
		if _, err := New(tc.size, tc.block, tc.ways); err == nil {
			t.Errorf("New(%d,%d,%d): want error", tc.size, tc.block, tc.ways)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := mustNew(t, 64*1024, 64, 32) // the counter cache of Table I
	if c.Sets() != 32 || c.Ways() != 32 {
		t.Errorf("geometry = %dx%d, want 32 sets x 32 ways", c.Sets(), c.Ways())
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	if hit, _ := c.Lookup(0, 0); hit {
		t.Error("cold cache must miss")
	}
	c.Insert(0, 100, false)
	hit, ready := c.Lookup(0, 200)
	if !hit {
		t.Error("inserted block must hit")
	}
	if ready != 200 {
		t.Errorf("resident line readyAt = %d, want now (200)", ready)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// Accessing an in-flight line returns the fill completion time.
func TestInFlightFill(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Insert(0, 5000, false) // fill completes at t=5000
	hit, ready := c.Lookup(0, 1000)
	if !hit || ready != 5000 {
		t.Errorf("in-flight lookup = (%v, %d), want (true, 5000)", hit, ready)
	}
	// After the fill completes, no extra delay.
	if _, ready := c.Lookup(0, 6000); ready != 6000 {
		t.Errorf("post-fill readyAt = %d, want 6000", ready)
	}
}

func TestSameSetDifferentTags(t *testing.T) {
	c := mustNew(t, 1024, 64, 2) // 8 sets
	// Addresses 0 and 8*64 share set 0 with different tags.
	c.Insert(0, 0, false)
	c.Insert(8*64, 0, false)
	if hit, _ := c.Lookup(0, 0); !hit {
		t.Error("way 0 lost")
	}
	if hit, _ := c.Lookup(8*64, 0); !hit {
		t.Error("way 1 lost")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2) // one set, two ways
	c.Insert(0, 0, false)
	c.Insert(64, 0, false)
	c.Lookup(0, 0) // make 64 the LRU
	ev, evicted := c.Insert(128, 0, false)
	if !evicted || ev.Addr != 64 {
		t.Errorf("eviction = %+v (%v), want addr 64", ev, evicted)
	}
	if c.Contains(64) {
		t.Error("evicted block still present")
	}
	if !c.Contains(0) || !c.Contains(128) {
		t.Error("wrong block evicted")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2)
	c.Insert(0, 0, true) // dirty
	c.Insert(64, 0, false)
	c.Insert(128, 0, false) // evicts 0 (LRU)
	s := c.Stats()
	if s.Writebacks != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 writeback / 1 eviction", s)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2)
	c.Insert(0, 0, false)
	if hit, _ := c.Write(0, 0); !hit {
		t.Fatal("write to present block must hit")
	}
	c.Insert(64, 0, false)
	ev, _ := c.Insert(128, 0, false) // evicts 0
	if !ev.Dirty {
		t.Error("written block evicted clean")
	}
}

func TestWriteMiss(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2)
	if hit, _ := c.Write(0, 0); hit {
		t.Error("write to absent block must miss")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2)
	c.Insert(0, 1000, false)
	// Re-inserting (e.g. a demand fill racing a prefetch) must not
	// evict anything and keeps the earlier ready time.
	if _, evicted := c.Insert(0, 500, true); evicted {
		t.Error("re-insert caused eviction")
	}
	if hit, ready := c.Lookup(0, 0); !hit || ready != 500 {
		t.Errorf("refreshed line = hit=%v ready=%d, want 500", hit, ready)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2)
	c.Insert(0, 0, true)
	dirty, present := c.Invalidate(0)
	if !dirty || !present {
		t.Errorf("Invalidate = (%v,%v), want dirty and present", dirty, present)
	}
	if c.Contains(0) {
		t.Error("block still present after invalidate")
	}
	if _, present := c.Invalidate(0); present {
		t.Error("double invalidate reported present")
	}
}

// The model invariant: hit rate of a small cache under a working set
// larger than the cache must be low; under a smaller working set high.
func TestWorkingSetBehaviour(t *testing.T) {
	c := mustNew(t, 64*1024, 64, 16)
	rng := rand.New(rand.NewSource(50))
	// Working set 4x the cache: thrash.
	for i := 0; i < 100000; i++ {
		addr := uint64(rng.Intn(4*1024)) * 64
		if hit, _ := c.Lookup(addr, 0); !hit {
			c.Insert(addr, 0, false)
		}
	}
	big := c.Stats()
	bigRate := float64(big.Hits) / float64(big.Hits+big.Misses)
	c.ResetStats()
	// Working set 1/4 the cache: nearly all hits.
	for i := 0; i < 100000; i++ {
		addr := uint64(rng.Intn(256)) * 64
		if hit, _ := c.Lookup(addr, 0); !hit {
			c.Insert(addr, 0, false)
		}
	}
	small := c.Stats()
	smallRate := float64(small.Hits) / float64(small.Hits+small.Misses)
	if bigRate > 0.5 {
		t.Errorf("thrash hit rate = %.2f, want < 0.5", bigRate)
	}
	if smallRate < 0.95 {
		t.Errorf("resident hit rate = %.2f, want > 0.95", smallRate)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	p := NewNextLine(64, 2)
	got := p.Observe(nil, 100, 0) // block 64..127
	if len(got) != 2 || got[0] != 128 || got[1] != 192 {
		t.Errorf("NextLine.Observe = %v, want [128 192]", got)
	}
}

func TestStridePrefetcherDetectsStreams(t *testing.T) {
	p := NewStride(64, 2)
	// Constant stride of 256 bytes; needs 3 accesses to gain confidence.
	if got := p.Observe(nil, 0, 1); got != nil {
		t.Errorf("first access prefetched %v", got)
	}
	if got := p.Observe(nil, 256, 1); len(got) != 0 {
		t.Errorf("second access prefetched %v", got)
	}
	got := p.Observe(nil, 512, 1)
	if len(got) != 2 || got[0] != 768 || got[1] != 1024 {
		t.Errorf("third access = %v, want [768 1024]", got)
	}
}

func TestStridePrefetcherSilentOnRandom(t *testing.T) {
	p := NewStride(64, 2)
	rng := rand.New(rand.NewSource(51))
	issued := 0
	for i := 0; i < 1000; i++ {
		issued += len(p.Observe(nil, uint64(rng.Intn(1<<30)), 1))
	}
	if issued > 10 {
		t.Errorf("stride prefetcher issued %d prefetches on a random stream", issued)
	}
}

func TestStridePrefetcherPerStream(t *testing.T) {
	p := NewStride(64, 1)
	// Two interleaved streams with different strides must both train.
	p.Observe(nil, 0, 1)
	p.Observe(nil, 1<<20, 2)
	p.Observe(nil, 64, 1)
	p.Observe(nil, 1<<20+128, 2)
	got1 := p.Observe(nil, 128, 1)
	got2 := p.Observe(nil, 1<<20+256, 2)
	if len(got1) != 1 || got1[0] != 192 {
		t.Errorf("stream 1 prefetch = %v", got1)
	}
	if len(got2) != 1 || got2[0] != 1<<20+384 {
		t.Errorf("stream 2 prefetch = %v", got2)
	}
}

func TestCompositePrefetcher(t *testing.T) {
	c := &Composite{Prefetchers: []Prefetcher{NewNextLine(64, 1), NewNextLine(64, 2)}}
	got := c.Observe(nil, 0, 0)
	if len(got) != 3 {
		t.Errorf("composite returned %v", got)
	}
	// Observe appends after what dst already holds.
	got = c.Observe([]uint64{7}, 0, 0)
	if len(got) != 4 || got[0] != 7 || got[1] != 64 {
		t.Errorf("composite into a non-empty buffer returned %v", got)
	}
}

// The simulator's per-miss prefetch path: a Composite of the Table I
// prefetchers observing into a reused buffer allocates nothing once
// the stream is known.
func TestCompositeObserveNoAllocs(t *testing.T) {
	c := &Composite{Prefetchers: []Prefetcher{NewNextLine(64, 2), NewStride(64, 2)}}
	buf := make([]uint64, 0, 8)
	addr := uint64(0)
	buf = c.Observe(buf[:0], addr, 3) // allocates the stream's entry
	allocs := testing.AllocsPerRun(1000, func() {
		addr += 256
		buf = c.Observe(buf[:0], addr, 3)
	})
	if allocs != 0 {
		t.Errorf("Composite.Observe: %v allocs per run, want 0", allocs)
	}
	if len(buf) != 4 {
		t.Errorf("trained stream suggested %v, want 2 next-line + 2 stride", buf)
	}
}

// More streams than the stride table holds must evict deterministically:
// two prefetchers fed the same sequence suggest the same addresses.
func TestStridePrefetcherEvictionDeterministic(t *testing.T) {
	run := func() []uint64 {
		p := NewStride(64, 2)
		rng := rand.New(rand.NewSource(52))
		var steps [320]uint64
		var out []uint64
		for i := 0; i < 20000; i++ {
			stream := uint64(rng.Intn(len(steps)))
			// Each stream walks its own region with its own stride.
			steps[stream]++
			out = p.Observe(out, stream<<32+steps[stream]*(stream+1)*64, stream)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no stream ever trained")
	}
	if len(a) != len(b) {
		t.Fatalf("runs suggested %d and %d addresses", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suggestion %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// A full table replaces the least recently observed stream, keeping
// the recently active ones trained.
func TestStridePrefetcherEvictsOldestStream(t *testing.T) {
	p := NewStride(64, 1)
	// Train stream 0, then fill the table with strideStreams-1 others.
	p.Observe(nil, 0, 0)
	p.Observe(nil, 64, 0)
	for s := uint64(1); s < strideStreams; s++ {
		p.Observe(nil, s<<32, s)
	}
	p.Observe(nil, 128, 0) // stream 0 is now the most recent
	// A new stream evicts stream 1, the oldest.
	p.Observe(nil, 999<<32, 999)
	if _, ok := p.table[1]; ok {
		t.Error("least recently observed stream 1 survived eviction")
	}
	if len(p.table) != strideStreams {
		t.Errorf("table holds %d streams, want %d", len(p.table), strideStreams)
	}
	if got := p.Observe(nil, 192, 0); len(got) != 1 || got[0] != 256 {
		t.Errorf("recently used stream 0 lost its training: %v", got)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c, _ := New(1<<20, 64, 16)
	c.Insert(0, 0, false)
	for i := 0; i < b.N; i++ {
		c.Lookup(0, int64(i))
	}
}

func BenchmarkLookupInsertChurn(b *testing.B) {
	c, _ := New(1<<16, 64, 16)
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * 64
		if hit, _ := c.Lookup(addr, 0); !hit {
			c.Insert(addr, 0, i%3 == 0)
		}
	}
}

// BenchmarkMissInsert cycles 17 blocks through one set of a 16-way
// cache, so under LRU every Lookup misses and the Insert after it
// evicts: the fill takes the victim its miss picked.
func BenchmarkMissInsert(b *testing.B) {
	c, _ := New(1<<16, 64, 16)
	stride := uint64(c.Sets()) * 64 // same set, next tag
	for i := 0; i < b.N; i++ {
		addr := uint64(i%17) * stride
		if hit, _ := c.Lookup(addr, 0); !hit {
			c.Insert(addr, 0, i%3 == 0)
		}
	}
}

// BenchmarkCacheMissProbe probes an L3-sized cache (8 MiB, 16 ways),
// every set full, for random absent blocks: the prefetch filter's
// common case, where each probe's first load of a set misses the host
// cache.
func BenchmarkCacheMissProbe(b *testing.B) {
	c, _ := New(8<<20, 64, 16)
	lines := uint64(c.Sets() * c.Ways())
	for blk := uint64(0); blk < lines; blk++ {
		c.Insert(blk*64, 0, false)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = (lines + uint64(rng.Int63n(int64(63*lines)))) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Contains(addrs[i&(len(addrs)-1)]) {
			b.Fatal("absent block found")
		}
	}
}
