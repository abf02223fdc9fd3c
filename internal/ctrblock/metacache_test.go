package ctrblock

import (
	"math/rand"
	"testing"
)

// onChip reports whether node (level, idx) is in the metadata cache.
func onChip(s *Store, level int, idx uint64) bool {
	return s.tags != nil && s.tags.Contains(s.nodeAddr(level, idx))
}

func TestSetsFor(t *testing.T) {
	for _, tc := range []struct {
		budget, nodeBytes uint64
		sets              int
	}{
		{CacheBytes, 64, 32},
		{CacheBytes / 8, 64, 4},
		{CacheBytes / 3, 64, 8}, // 10 sets fit; rounded down to a power of two
		{CacheBytes / 64, 64, 1},
		{0, 64, 1},
		{CacheBytes, 128, 16},
	} {
		if got := setsFor(tc.budget, tc.nodeBytes); got != tc.sets {
			t.Errorf("setsFor(%d, %d) = %d, want %d", tc.budget, tc.nodeBytes, got, tc.sets)
		}
	}
	if got := newStore(t).CacheSets(); got != 32 {
		t.Errorf("a new store has %d sets, want Table I's 32", got)
	}
	wide, err := New(1<<20, 128)
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.CacheSets(); got != 16 {
		t.Errorf("a store of 128-byte blocks has %d sets, want 16 within 64 KB", got)
	}
}

// A footprint eight times an 8 KB cache keeps the cache writing dirty
// nodes back through the whole tree. Every legitimate counter must
// keep verifying, and a counter-block pair captured in DRAM before one
// writeback and replayed after a later one must be caught against its
// still-resident parent.
func TestEvictionStress(t *testing.T) {
	s := newStore(t)
	s.SetCacheSize(8 << 10)
	if s.CacheSets() != 4 {
		t.Fatalf("8 KB cache has %d sets, want 4", s.CacheSets())
	}
	const footprint = 1024 // counter blocks, spread over all 8192
	rng := rand.New(rand.NewSource(41))
	randAddr := func() uint64 {
		cb := uint64(rng.Intn(footprint)) * 8
		return (cb*CountersPerBlock + uint64(rng.Intn(CountersPerBlock))) * testBlock
	}
	cbOf := func(addr uint64) uint64 { return s.blockIndex(addr) / CountersPerBlock }

	// A capture is the whole counter block as it sits in DRAM: all 128
	// counters and the MAC, so a replay is consistent in itself and
	// only the parent's fresher entry can expose it.
	type capture struct {
		cb   uint64
		vals [CountersPerBlock]uint32
		mac  uint64
	}
	grab := func(cb uint64) capture {
		return capture{cb: cb, vals: *s.counterBlock(cb), mac: s.CounterBlockMAC(cb * CountersPerBlock * testBlock)}
	}
	put := func(c capture) {
		for i, v := range c.vals {
			s.ReplayCounter((c.cb*CountersPerBlock+uint64(i))*testBlock, v, c.mac)
		}
	}
	var captured *capture
	want := make(map[uint64]uint32)
	caught := 0
	for step := 0; step < 20000; step++ {
		addr := randAddr()
		if !s.VerifyCounter(addr) {
			t.Fatalf("step %d: legitimate counter at %#x fails verification", step, addr)
		}
		next := s.Counter(addr) + 1 + uint32(rng.Intn(3))
		if err := s.Increment(addr, next); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want[addr] = next

		if captured == nil {
			if cb := cbOf(randAddr()); !onChip(s, 0, cb) && onChip(s, 1, cb/TreeArity) {
				c := grab(cb)
				captured = &c
			}
			continue
		}
		cb := captured.cb
		if onChip(s, 0, cb) || !onChip(s, 1, cb/TreeArity) || s.CounterBlockMAC(cb*CountersPerBlock*testBlock) == captured.mac {
			continue // not yet written back again, or the parent left
		}
		current := grab(cb)
		put(*captured)
		if s.VerifyCounter(cb * CountersPerBlock * testBlock) {
			t.Fatalf("step %d: replay of counter block %d undetected", step, cb)
		}
		put(current)
		caught++
		captured = nil
	}
	if st := s.tags.Stats(); st.Writebacks == 0 {
		t.Fatalf("footprint never overflowed the cache: %+v", st)
	}
	if caught == 0 {
		t.Fatal("no replay was attempted under a resident parent")
	}
	for addr, v := range want {
		if got := s.Counter(addr); got != v {
			t.Fatalf("counter at %#x = %d, want %d", addr, got, v)
		}
		if !s.VerifyCounter(addr) {
			t.Fatalf("counter at %#x fails verification after the run", addr)
		}
	}
	t.Logf("%d replays caught; cache %+v", caught, s.tags.Stats())
}

// Increment verifies before it writes: a tampered counter block off
// chip is refused, and its counter stays as the attacker left it
// rather than advancing from the forged value.
func TestIncrementRefusesTamperedBlock(t *testing.T) {
	s := newStore(t)
	const addr = 77 * testBlock
	if err := s.Increment(addr, 4); err != nil {
		t.Fatal(err)
	}
	s.Evict(addr)
	s.ReplayCounter(addr, 9, s.CounterBlockMAC(addr)) // a value the MAC does not cover
	if err := s.Increment(addr, 10); err == nil {
		t.Fatal("increment of a tampered counter block succeeded")
	}
	if got := s.Counter(addr); got != 9 {
		t.Errorf("refused increment changed the counter to %d, want 9", got)
	}
	if onChip(s, 0, s.blockIndex(addr)/CountersPerBlock) {
		t.Error("a counter block that failed verification entered the cache")
	}
}

// A dirty node whose writeback finds its parent tampered keeps its
// stale DRAM MAC, and the failure is reported at that node's next
// fetch, not charged to the unrelated call that displaced it.
func TestWritebackFailureReportedAtItsNode(t *testing.T) {
	s := newStore(t)
	s.SetCacheSize(0) // one 32-way set: every node competes for it
	if err := s.Increment(0, 1); err != nil {
		t.Fatal(err)
	}
	if dirty, present := s.tags.Invalidate(s.nodeAddr(1, 0)); !present || dirty {
		t.Fatalf("parent of counter block 0: present %v dirty %v, want clean on chip", present, dirty)
	}
	s.macs[1][0] = s.storedMAC(1, 0) ^ 1
	// Counter blocks 8, 16, ... sit under other level-1 nodes.
	for k := uint64(1); k <= 64; k++ {
		addr := 8 * k * CountersPerBlock * testBlock
		if err := s.Increment(addr, 1); err != nil {
			t.Fatalf("counter block %d: %v", 8*k, err)
		}
	}
	if onChip(s, 0, 0) {
		t.Fatal("counter block 0 was never displaced")
	}
	if !s.VerifyCounter(8 * CountersPerBlock * testBlock) {
		t.Error("an untampered path failed verification")
	}
	if s.VerifyCounter(0) {
		t.Error("counter block 0 verified under a tampered parent")
	}
}

// Capturing or replaying a counter block's DRAM pair while the block is
// on chip would test nothing, so both panic.
func TestDRAMPairNeedsEviction(t *testing.T) {
	s := newStore(t)
	if err := s.Increment(0, 1); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"CounterBlockMAC": func() { s.CounterBlockMAC(0) },
		"ReplayCounter":   func() { s.ReplayCounter(0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a resident counter block did not panic", name)
				}
			}()
			f()
		}()
	}
	s.Evict(0)
	s.ReplayCounter(0, 1, s.CounterBlockMAC(0))
	if !s.VerifyCounter(0) {
		t.Error("rewriting the current DRAM pair broke verification")
	}
}

// BenchmarkIncrementMiss keeps the metadata cache's miss path
// measured: verify plus increment over 4096 counter blocks of a 1 GiB
// store, four times the 1024 nodes of Table I's cache. Consecutive
// calls are 1031 counter blocks apart, so they also miss on the tree
// nodes above, and nearly every fetch displaces a dirty node.
func BenchmarkIncrementMiss(b *testing.B) {
	const blocks = 4096
	s, err := New(1<<30, testBlock)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 1031 % blocks * CountersPerBlock * testBlock
		if !s.VerifyCounter(addr) {
			b.Fatalf("op %d: counter block of %#x fails verification", i, addr)
		}
		if err := s.Increment(addr, s.Counter(addr)+1); err != nil {
			b.Fatal(err)
		}
	}
}
