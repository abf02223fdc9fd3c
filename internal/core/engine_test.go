package core

import (
	"math/rand"
	"strings"
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
	"counterlight/internal/obs"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randBlock(rng *rand.Rand) cipher.Block {
	var b cipher.Block
	rng.Read(b[:])
	return b
}

func TestNewEngineErrors(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.AESKeyBytes = 7
	if _, err := NewEngine(opts); err == nil {
		t.Error("want error for bad key size")
	}
	opts = DefaultEngineOptions()
	opts.MemSize = 100
	if _, err := NewEngine(opts); err == nil {
		t.Error("want error for unaligned memory size")
	}
}

func TestAddressValidation(t *testing.T) {
	e := newEngine(t)
	if err := e.Write(3, cipher.Block{}, epoch.CounterMode); err == nil {
		t.Error("unaligned write accepted")
	}
	if err := e.Write(1<<40, cipher.Block{}, epoch.CounterMode); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, _, err := e.Read(64); err == nil {
		t.Error("read of unwritten block succeeded")
	}
}

func TestRoundTripBothModes(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(90))
	for i := 0; i < 50; i++ {
		addr := uint64(rng.Intn(1<<14)) * 64
		plain := randBlock(rng)
		mode := epoch.CounterMode
		if i%2 == 1 {
			mode = epoch.Counterless
		}
		if err := e.Write(addr, plain, mode); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, info, err := e.Read(addr)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != plain {
			t.Fatalf("round trip %d failed (mode %v)", i, mode)
		}
		if info.Mode != mode {
			t.Errorf("read %d: mode = %v, want %v", i, info.Mode, mode)
		}
		if info.Corrected {
			t.Errorf("read %d: spurious correction", i)
		}
	}
}

// Counter-mode blocks must carry their counter in the ECC metadata,
// matching the counter store (the property that eliminates the counter
// fetch on reads).
func TestMetadataMatchesCounterStore(t *testing.T) {
	e := newEngine(t)
	var plain cipher.Block
	const addr = 4096
	for i := 0; i < 5; i++ {
		if err := e.Write(addr, plain, epoch.CounterMode); err != nil {
			t.Fatal(err)
		}
		cw, _ := e.Snapshot(addr)
		if got, want := cw.DecodeMeta(), uint64(e.Counters().Counter(addr)); got != want {
			t.Fatalf("write %d: ECC meta %d != counter store %d", i, got, want)
		}
	}
}

// Counters must strictly increase across writes (nonce rule).
func TestCountersAdvance(t *testing.T) {
	e := newEngine(t)
	var plain cipher.Block
	last := uint32(0)
	for i := 0; i < 10; i++ {
		if err := e.Write(128, plain, epoch.CounterMode); err != nil {
			t.Fatal(err)
		}
		c := e.Counters().Counter(128)
		if c <= last {
			t.Fatalf("counter did not advance: %d -> %d", last, c)
		}
		last = c
	}
}

// Mode switching per block: counter -> counterless -> counter.
func TestModeSwitching(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(91))
	const addr = 64 * 77
	for _, mode := range []epoch.Mode{epoch.CounterMode, epoch.Counterless, epoch.CounterMode} {
		plain := randBlock(rng)
		if err := e.Write(addr, plain, mode); err != nil {
			t.Fatal(err)
		}
		got, info, err := e.Read(addr)
		if err != nil || got != plain || info.Mode != mode {
			t.Fatalf("mode %v: err=%v match=%v gotMode=%v", mode, err, got == plain, info.Mode)
		}
	}
}

// The counterless flag must be the all-ones metadata.
func TestCounterlessFlagEncoding(t *testing.T) {
	e := newEngine(t)
	if err := e.Write(0, cipher.Block{}, epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	cw, _ := e.Snapshot(0)
	if cw.DecodeMeta() != ctrblock.CounterlessFlag {
		t.Errorf("counterless meta = %#x, want %#x", cw.DecodeMeta(), uint64(ctrblock.CounterlessFlag))
	}
}

// Memoization: reads of counter-mode blocks written recently must hit
// the table (the write value W is memoized).
func TestMemoizationHitOnRead(t *testing.T) {
	e := newEngine(t)
	var plain cipher.Block
	if err := e.Write(256, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Read(256)
	if err != nil {
		t.Fatal(err)
	}
	if !info.MemoHit {
		t.Error("read after write missed the memoization table")
	}
	if e.Stats().MemoHits == 0 {
		t.Error("memo hit not counted")
	}
}

// Single-chip faults in every position must be corrected in both modes.
func TestFaultCorrectionAllChips(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(92))
	for _, mode := range []epoch.Mode{epoch.CounterMode, epoch.Counterless} {
		for chip := 0; chip < ecc.TotalChips; chip++ {
			addr := uint64(chip+1) * 640
			plain := randBlock(rng)
			if err := e.Write(addr, plain, mode); err != nil {
				t.Fatal(err)
			}
			if err := e.InjectFault(addr, chip, 0xBAD0+uint64(chip)); err != nil {
				t.Fatal(err)
			}
			got, info, err := e.Read(addr)
			if err != nil {
				t.Fatalf("mode %v chip %d: %v", mode, chip, err)
			}
			if got != plain {
				t.Fatalf("mode %v chip %d: wrong data after correction", mode, chip)
			}
			if !info.Corrected || info.BadChip != chip {
				t.Errorf("mode %v chip %d: info = %+v", mode, chip, info)
			}
		}
	}
	if e.Stats().Corrections == 0 || e.Stats().MACFailures == 0 {
		t.Error("correction stats not recorded")
	}
}

// Two-chip faults must come back as detected uncorrectable errors.
func TestDoubleFaultIsDUE(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(93))
	plain := randBlock(rng)
	if err := e.Write(0, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	e.InjectFault(0, 1, rng.Uint64()|1)
	e.InjectFault(0, 5, rng.Uint64()|1)
	_, _, err := e.Read(0)
	if err == nil {
		t.Fatal("two-chip fault read succeeded")
	}
	if !strings.Contains(err.Error(), "uncorrectable") {
		t.Errorf("error = %v, want DUE", err)
	}
	if e.Stats().DUEs != 1 {
		t.Errorf("DUE count = %d, want 1", e.Stats().DUEs)
	}
}

func TestInjectFaultErrors(t *testing.T) {
	e := newEngine(t)
	if err := e.InjectFault(0, 0, 1); err == nil {
		t.Error("fault into unwritten block accepted")
	}
	e.Write(0, cipher.Block{}, epoch.CounterMode)
	if err := e.InjectFault(0, 17, 1); err == nil {
		t.Error("invalid chip accepted")
	}
}

// Fig. 10's counter replay before a writeback must be caught by the
// integrity tree on the write path.
func TestCounterReplayDetectedOnWrite(t *testing.T) {
	e := newEngine(t)
	var plain cipher.Block
	const addr = 64 * 1000
	if err := e.Write(addr, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	// The counter block is captured and replayed in DRAM, so it is
	// evicted from the on-chip metadata cache before each.
	e.Counters().Evict(addr)
	oldVal := e.Counters().Counter(addr)
	oldMAC := e.Counters().CounterBlockMAC(addr)
	if err := e.Write(addr, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	// Attacker replays the counter block to its pre-write state.
	e.Counters().Evict(addr)
	e.Counters().ReplayCounter(addr, oldVal, oldMAC)
	err := e.Write(addr, plain, epoch.CounterMode)
	if err == nil {
		t.Fatal("write proceeded over a replayed counter")
	}
	if !strings.Contains(err.Error(), "replay") {
		t.Errorf("error = %v, want replay detection", err)
	}
}

// A write the integrity tree rejects leaves no state behind: the block
// keeps its codeword and its owning VM, so a journal that skips the
// failed op redoes exactly the engine's state.
func TestRejectedWriteLeavesNoState(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.VMs = 2
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var plain cipher.Block
	const addr = 64 * 1000
	if err := e.WriteAs(0, addr, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	e.Counters().Evict(addr)
	oldVal := e.Counters().Counter(addr)
	oldMAC := e.Counters().CounterBlockMAC(addr)
	if err := e.WriteAs(0, addr, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	cw, _ := e.Snapshot(addr)
	e.Counters().Evict(addr)
	e.Counters().ReplayCounter(addr, oldVal, oldMAC)
	plain[0] = 1
	if err := e.WriteAs(1, addr, plain, epoch.CounterMode); err == nil {
		t.Fatal("write proceeded over a replayed counter")
	}
	if vm := e.VMOf(addr); vm != 0 {
		t.Errorf("rejected write moved the block to VM %d", vm)
	}
	if got, _ := e.Snapshot(addr); got != cw {
		t.Error("rejected write changed the stored codeword")
	}
}

// The engine's metadata cache is Table I's and reports on /metrics
// under cache="ctrblock": a hot loop over one counter block hits, and
// a footprint of twice the cache's 1024 nodes writes dirty nodes back.
func TestCounterCacheMetrics(t *testing.T) {
	e := newEngine(t)
	if got := e.Counters().CacheSets(); got != 32 {
		t.Errorf("standalone engine cache has %d sets, want Table I's 32", got)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg, obs.L("shard", "0"))
	lbl := []obs.Label{obs.L("shard", "0"), obs.L("cache", "ctrblock")}
	var plain cipher.Block
	for i := 0; i < 64; i++ {
		if err := e.Write(uint64(i%8)*64, plain, epoch.CounterMode); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if hits := snap.Value("cache_hits_total", lbl...); hits < 63 {
		t.Errorf("hot loop reported %v metadata cache hits, want at least 63", hits)
	}
	if wb := snap.Value("cache_writebacks_total", lbl...); wb != 0 {
		t.Errorf("hot loop reported %v writebacks, want 0", wb)
	}
	for cb := uint64(0); cb < 2048; cb++ {
		if err := e.Write(cb*ctrblock.CountersPerBlock*64, plain, epoch.CounterMode); err != nil {
			t.Fatal(err)
		}
	}
	if wb := reg.Snapshot().Value("cache_writebacks_total", lbl...); wb == 0 {
		t.Error("oversized footprint reported no metadata cache writebacks")
	}
}

// Whole-block replay is NOT detected — matching counterless security
// (§IV-F: "an attacker can always replay the whole data block").
func TestWholeBlockReplayUndetected(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(94))
	const addr = 64 * 2000
	oldPlain := randBlock(rng)
	if err := e.Write(addr, oldPlain, epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot(addr)
	newPlain := randBlock(rng)
	if err := e.Write(addr, newPlain, epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	e.Restore(addr, snap)
	got, _, err := e.Read(addr)
	if err != nil {
		t.Fatalf("replayed block read failed: %v", err)
	}
	if got != oldPlain {
		t.Error("replayed block did not decrypt to the old plaintext")
	}
}

// Tampering with a single chip is indistinguishable from a chip fault:
// chipkill silently heals it. Tampering with two chips is detected.
func TestTamperDetection(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(95))
	plain := randBlock(rng)
	if err := e.Write(64, plain, epoch.Counterless); err != nil {
		t.Fatal(err)
	}
	e.InjectFault(64, 3, 0xFFFF)
	e.InjectFault(64, 8, 0xFFFF)
	if _, _, err := e.Read(64); err == nil {
		t.Error("multi-chip tamper went undetected")
	}
}

// ForceCounterless (faulty-rank fallback, §IV-E) pins future writes to
// counterless mode.
func TestForceCounterless(t *testing.T) {
	e := newEngine(t)
	e.ForceCounterless(128)
	if err := e.Write(128, cipher.Block{}, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Read(128)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != epoch.Counterless {
		t.Errorf("forced block served in %v", info.Mode)
	}
	if e.Stats().CounterModeWrites != 0 {
		t.Error("counter-mode write recorded for a forced-counterless block")
	}
}

// A parity-chip fault on a counter-mode block exercises the
// counter-hypothesis path: the decoded metadata is garbage and the
// counter store supplies the right value.
func TestParityFaultRecoversViaCounterHypothesis(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(96))
	plain := randBlock(rng)
	if err := e.Write(192, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	e.InjectFault(192, ecc.ParityChip, 0x123456789)
	got, info, err := e.Read(192)
	if err != nil {
		t.Fatal(err)
	}
	if got != plain || !info.Corrected || info.BadChip != ecc.ParityChip {
		t.Errorf("parity recovery: match=%v info=%+v", got == plain, info)
	}
	if info.Mode != epoch.CounterMode {
		t.Errorf("recovered mode = %v", info.Mode)
	}
}

// Statistics must add up across a mixed run.
func TestStatsAccounting(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 20; i++ {
		addr := uint64(i) * 64
		mode := epoch.CounterMode
		if i%4 == 0 {
			mode = epoch.Counterless
		}
		e.Write(addr, randBlock(rng), mode)
		e.Read(addr)
	}
	s := e.Stats()
	if s.Writes != 20 || s.Reads != 20 {
		t.Errorf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.CounterModeWrites+s.CounterlessWrites != s.Writes {
		t.Error("mode write counts do not sum to total")
	}
	if s.CounterlessWrites != 5 {
		t.Errorf("counterless writes = %d, want 5", s.CounterlessWrites)
	}
}
