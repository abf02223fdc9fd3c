package ctrblock

import (
	"math/rand"
	"testing"
)

const (
	testMem   = 1 << 26 // 64 MB data region
	testBlock = 64
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(testMem, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 64); err == nil {
		t.Error("want error for zero memory")
	}
	if _, err := New(1<<20, 0); err == nil {
		t.Error("want error for zero block size")
	}
	if _, err := New(100, 64); err == nil {
		t.Error("want error for non-multiple memory size")
	}
}

func TestGeometry(t *testing.T) {
	s := newStore(t)
	// 64 MB / 64 B = 1 Mi data blocks; /128 = 8 Ki counter blocks;
	// levels: 8192 -> 1024 -> 128 -> 16 -> 2 -> 1.
	if got := s.levelBlocks[0]; got != 8192 {
		t.Errorf("counter blocks = %d, want 8192", got)
	}
	wantLevels := []uint64{8192, 1024, 128, 16, 2, 1}
	if s.Levels() != len(wantLevels) {
		t.Fatalf("levels = %d, want %d", s.Levels(), len(wantLevels))
	}
	for i, w := range wantLevels {
		if s.levelBlocks[i] != w {
			t.Errorf("level %d blocks = %d, want %d", i, s.levelBlocks[i], w)
		}
	}
}

// The split-counter metadata overhead must be small — the paper quotes
// 1.6% for counters plus tree. Our exact layout (1/128 for counters
// plus the 8-ary tree above) comes to about 0.9%.
func TestOverheadFraction(t *testing.T) {
	s := newStore(t)
	frac := float64(s.OverheadBytes()) / float64(testMem)
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("metadata overhead = %.4f of memory, want ~0.9%%", frac)
	}
}

func TestCounterBlockAddrMapping(t *testing.T) {
	s := newStore(t)
	// Blocks 0..127 share the first counter block; block 128 starts the next.
	a0 := s.CounterBlockAddr(0)
	if a0 != testMem {
		t.Errorf("first counter block at %#x, want %#x", a0, uint64(testMem))
	}
	if s.CounterBlockAddr(127*64) != a0 {
		t.Error("block 127 should share counter block 0")
	}
	if s.CounterBlockAddr(128*64) != a0+64 {
		t.Error("block 128 should use counter block 1")
	}
	// Counter block addresses must be inside the metadata region.
	if a := s.CounterBlockAddr(testMem - 64); a < testMem || a >= testMem+s.OverheadBytes() {
		t.Errorf("counter block address %#x outside metadata region", a)
	}
}

// treePath collects the DRAM-resident tree-node addresses protecting
// addr, bottom-up.
func treePath(s *Store, addr uint64) []uint64 {
	var out []uint64
	for level := 1; ; level++ {
		a, ok := s.TreeNodeAddr(addr, level)
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func TestTreeNodeAddrs(t *testing.T) {
	s := newStore(t)
	nodes := treePath(s, 0)
	// 6 levels total; DRAM-resident tree nodes are levels 1..4 (the
	// top node lives on chip): 4 addresses.
	if len(nodes) != 4 {
		t.Fatalf("tree path length = %d, want 4", len(nodes))
	}
	for i, a := range nodes {
		if a < s.levelBase[i+1] || a >= s.levelBase[i+1]+s.levelBlocks[i+1]*testBlock {
			t.Errorf("node %d address %#x outside level %d region", i, a, i+1)
		}
	}
	for _, level := range []int{-1, 0, 5, 6} {
		if a, ok := s.TreeNodeAddr(0, level); ok {
			t.Errorf("TreeNodeAddr(0, %d) = %#x, want no DRAM node", level, a)
		}
	}
	// Different data addresses far apart must diverge at the bottom of
	// the tree; they converge only at the on-chip top node, which is
	// not part of the DRAM path.
	other := treePath(s, testMem-64)
	if nodes[0] == other[0] {
		t.Error("distant blocks share a level-1 node")
	}
	// Nearby addresses (same counter block) share the whole path.
	near := treePath(s, 64)
	for i := range nodes {
		if nodes[i] != near[i] {
			t.Errorf("level %d: neighbors diverge", i+1)
		}
	}
}

func TestIncrementAndRead(t *testing.T) {
	s := newStore(t)
	if s.Counter(4096) != 0 {
		t.Error("initial counter must be 0")
	}
	if err := s.Increment(4096, 1); err != nil {
		t.Fatal(err)
	}
	if s.Counter(4096) != 1 {
		t.Error("counter not updated")
	}
	// Non-monotonic updates must be rejected.
	if err := s.Increment(4096, 1); err == nil {
		t.Error("want error for equal counter")
	}
	if err := s.Increment(4096, 0); err == nil {
		t.Error("want error for decreasing counter")
	}
	// Jumping forward is fine (the memoization policy does this).
	if err := s.Increment(4096, 100); err != nil {
		t.Error(err)
	}
	// Exceeding CounterMax is rejected.
	if err := s.Increment(4096, 1<<32-1); err == nil {
		t.Error("want error beyond CounterMax")
	}
}

func TestVerifyFreshStore(t *testing.T) {
	s := newStore(t)
	for _, addr := range []uint64{0, 64, 4096, testMem - 64} {
		if !s.VerifyCounter(addr) {
			t.Errorf("fresh store fails verification at %#x", addr)
		}
	}
}

func TestVerifyAfterIncrements(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(30))
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(testMem/64)) * 64
		if err := s.Increment(addrs[i], s.Counter(addrs[i])+uint32(rng.Intn(5)+1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range addrs {
		if !s.VerifyCounter(a) {
			t.Fatalf("verification fails at %#x after legitimate updates", a)
		}
	}
	// Untouched addresses must also still verify.
	if !s.VerifyCounter(63 * 64 * 128) {
		t.Error("untouched address fails verification")
	}
}

// Reproduce the Fig. 10 replay attack: capture {counter, MAC}, let the
// victim write (incrementing the counter), then replay the old pair.
// The tree must detect it. The pair lives in DRAM, so each side of the
// attack first evicts the counter block from the on-chip cache.
func TestReplayDetected(t *testing.T) {
	s := newStore(t)
	const addr = 512 * 64
	// Initial writes.
	if err := s.Increment(addr, 5); err != nil {
		t.Fatal(err)
	}
	s.Evict(addr)
	oldVal := s.Counter(addr)
	oldMAC := s.CounterBlockMAC(addr)
	// Victim writes again; counter advances and the tree path updates.
	if err := s.Increment(addr, 6); err != nil {
		t.Fatal(err)
	}
	if !s.VerifyCounter(addr) {
		t.Fatal("legitimate state must verify")
	}
	// Attacker replays the old counter and counter-block MAC.
	s.Evict(addr)
	s.ReplayCounter(addr, oldVal, oldMAC)
	if s.VerifyCounter(addr) {
		t.Error("replayed counter passed verification — replay undetected")
	}
}

// Replaying only the counter value (without a consistent MAC) is the
// naive attack; it must also fail.
func TestCounterTamperDetected(t *testing.T) {
	s := newStore(t)
	const addr = 99 * 64
	if err := s.Increment(addr, 3); err != nil {
		t.Fatal(err)
	}
	s.Evict(addr)
	mac := s.CounterBlockMAC(addr)
	s.ReplayCounter(addr, 2, mac) // stale value, current MAC
	if s.VerifyCounter(addr) {
		t.Error("tampered counter passed verification")
	}
}

// A replay in one subtree must not break verification of siblings.
func TestReplayIsolation(t *testing.T) {
	s := newStore(t)
	a1 := uint64(0)          // counter block 0
	a2 := uint64(130 * 64)   // counter block 1
	a3 := uint64(10000 * 64) // farther away
	for _, a := range []uint64{a1, a2, a3} {
		if err := s.Increment(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Evict(a1)
	old := s.Counter(a1)
	oldMAC := s.CounterBlockMAC(a1)
	if err := s.Increment(a1, 9); err != nil {
		t.Fatal(err)
	}
	s.Evict(a1)
	s.ReplayCounter(a1, old, oldMAC)
	if s.VerifyCounter(a1) {
		t.Error("replay undetected")
	}
	// The siblings verify from DRAM too, not from the cache.
	s.Evict(a2)
	s.Evict(a3)
	if !s.VerifyCounter(a2) || !s.VerifyCounter(a3) {
		t.Error("replay of one block broke verification of others")
	}
}

// The root must change whenever a write reaches the top of the tree —
// that is the anti-replay anchor the CPU keeps on chip. An increment
// stays in the on-chip cache; evicting its path writes it back.
func TestRootAdvances(t *testing.T) {
	s := newStore(t)
	r0 := s.RootCounter()
	if err := s.Increment(0, 1); err != nil {
		t.Fatal(err)
	}
	if s.RootCounter() != r0 {
		t.Error("root counter advanced before the write left the cache")
	}
	s.Evict(0)
	if s.RootCounter() == r0 {
		t.Error("root counter did not advance on writeback")
	}
}

// Counters of distinct blocks are independent.
func TestCounterIndependence(t *testing.T) {
	s := newStore(t)
	if err := s.Increment(0, 7); err != nil {
		t.Fatal(err)
	}
	if s.Counter(64) != 0 {
		t.Error("incrementing block 0 changed block 1's counter")
	}
}

func TestTinyMemorySingleLevel(t *testing.T) {
	// 128 blocks -> 1 counter block -> tree is just the root.
	s, err := New(128*64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 1 {
		t.Fatalf("levels = %d, want 1", s.Levels())
	}
	if got := treePath(s, 0); len(got) != 0 {
		t.Errorf("tiny store tree path = %v, want empty", got)
	}
	if err := s.Increment(0, 1); err != nil {
		t.Fatal(err)
	}
	if !s.VerifyCounter(0) {
		t.Error("verification fails on tiny store")
	}
	s.Evict(0)
	old := s.Counter(0)
	oldMAC := s.CounterBlockMAC(0)
	if err := s.Increment(0, 2); err != nil {
		t.Fatal(err)
	}
	s.Evict(0)
	s.ReplayCounter(0, old, oldMAC)
	if s.VerifyCounter(0) {
		t.Error("replay undetected on tiny store")
	}
}

// Reads never create a counter page: Counter and VerifyCounter on
// never-written blocks see the shared zero block, and a store sized
// for a whole 128 GiB channel, used only for its address layout,
// holds no pages and no metadata cache at all.
func TestReadsAllocateNoPage(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		addr := uint64(rng.Intn(testMem/64)) * 64
		if s.Counter(addr) != 0 || !s.VerifyCounter(addr) {
			t.Fatalf("never-written block %#x: counter %d, verify %v", addr, s.Counter(addr), s.VerifyCounter(addr))
		}
	}
	if len(s.counters) != 0 {
		t.Errorf("reads created %d counter pages, want 0", len(s.counters))
	}
	if allocs := testing.AllocsPerRun(100, func() { s.VerifyCounter(4096) }); allocs != 0 {
		t.Errorf("VerifyCounter of a never-written block allocates %.1f times, want 0", allocs)
	}

	const layoutMem = 128 << 30
	big, err := New(layoutMem, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		addr := uint64(rng.Int63n(layoutMem/64)) * 64
		if a := big.CounterBlockAddr(addr); a < layoutMem || a >= layoutMem+big.OverheadBytes() {
			t.Fatalf("counter block address %#x outside the metadata region", a)
		}
		for level := 1; level < big.Levels()-1; level++ {
			if _, ok := big.TreeNodeAddr(addr, level); !ok {
				t.Fatalf("no DRAM node at level %d of %d", level, big.Levels())
			}
		}
	}
	if len(big.counters) != 0 {
		t.Errorf("layout-only store holds %d counter pages, want 0", len(big.counters))
	}
	if big.tags != nil {
		t.Error("layout-only store allocated a metadata cache")
	}
}

// The first and last slot of a counter page belong to the page's own
// counter block: every writer (Increment, ForceCounter, ReplayCounter)
// lands in the right slot and leaves the neighbouring pages alone.
func TestCounterPageEdges(t *testing.T) {
	s := newStore(t)
	const page = 5 * CountersPerBlock * testBlock // first block of counter block 5
	first, last := uint64(page), uint64(page+(CountersPerBlock-1)*testBlock)
	if err := s.Increment(first, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Increment(last, 7); err != nil {
		t.Fatal(err)
	}
	if len(s.counters) != 1 {
		t.Fatalf("two writes to one counter block made %d pages, want 1", len(s.counters))
	}
	if s.Counter(first) != 3 || s.Counter(last) != 7 || s.Counter(first+testBlock) != 0 {
		t.Errorf("page slots = %d, %d, %d; want 3, 7, 0", s.Counter(first), s.Counter(last), s.Counter(first+testBlock))
	}
	if s.Counter(first-testBlock) != 0 || s.Counter(last+testBlock) != 0 {
		t.Error("a page write leaked into a neighbouring counter block")
	}

	s.ForceCounter(last, 2)
	s.ForceCounter(first, 9)
	if s.Counter(first) != 9 || s.Counter(last) != 2 {
		t.Errorf("after ForceCounter: %d, %d; want 9, 2", s.Counter(first), s.Counter(last))
	}
	for _, a := range []uint64{first, last} {
		if !s.VerifyCounter(a) {
			t.Errorf("%#x fails verification after ForceCounter", a)
		}
	}

	s.Evict(last)
	oldMAC := s.CounterBlockMAC(last)
	if err := s.Increment(last, 3); err != nil {
		t.Fatal(err)
	}
	s.Evict(last)
	s.ReplayCounter(last, 2, oldMAC)
	if s.Counter(last) != 2 || s.Counter(first) != 9 {
		t.Errorf("after ReplayCounter: %d, %d; want 2, 9", s.Counter(last), s.Counter(first))
	}
	if s.VerifyCounter(last) {
		t.Error("replay into the last slot undetected")
	}
}

func BenchmarkIncrement(b *testing.B) {
	s, _ := New(testMem, testBlock)
	for i := 0; i < b.N; i++ {
		addr := uint64(i%(testMem/64)) * 64
		_ = s.Increment(addr, s.Counter(addr)+1)
	}
}

func BenchmarkVerifyCounter(b *testing.B) {
	s, _ := New(testMem, testBlock)
	_ = s.Increment(4096, 1)
	for i := 0; i < b.N; i++ {
		s.VerifyCounter(4096)
	}
}

// Property: any sequence of legitimate increments keeps every address
// verifiable, and a replay of any captured (counter, MAC) pair after a
// further write is always detected.
func TestQuickIncrementAndReplay(t *testing.T) {
	s := newStore(t)
	type snapshot struct {
		addr uint64
		val  uint32
		mac  uint64
	}
	var snaps []snapshot
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 300; i++ {
		addr := uint64(rng.Intn(testMem/64)) * 64
		if err := s.Increment(addr, s.Counter(addr)+1+uint32(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
		if !s.VerifyCounter(addr) {
			t.Fatalf("step %d: legitimate state fails verification", i)
		}
		if rng.Intn(4) == 0 {
			s.Evict(addr)
			snaps = append(snaps, snapshot{addr, s.Counter(addr), s.CounterBlockMAC(addr)})
		}
	}
	// Advance every snapshotted address at least once more, then replay.
	for _, sn := range snaps {
		if err := s.Increment(sn.addr, s.Counter(sn.addr)+1); err != nil {
			t.Fatal(err)
		}
	}
	for i, sn := range snaps {
		s.Evict(sn.addr)
		s.ReplayCounter(sn.addr, sn.val, sn.mac)
		if s.VerifyCounter(sn.addr) {
			t.Fatalf("replay %d at %#x undetected", i, sn.addr)
		}
		// Repair through the recovery hook, which re-MACs the path
		// eagerly (Increment refuses the unverified block).
		s.ForceCounter(sn.addr, s.Counter(sn.addr)+100)
		if !s.VerifyCounter(sn.addr) {
			t.Fatalf("replay %d: repair failed", i)
		}
	}
}
