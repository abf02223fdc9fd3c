// Package core is the paper's primary contribution: the Counter-light
// memory controller. It has two halves:
//
//   - Engine (engine.go): the functional datapath. Real AES/SHA-3
//     encryption, OTP memoization, MAC construction, EncryptionMetadata
//     encoding into Synergy chipkill ECC, dual-hypothesis error
//     correction with entropy disambiguation, and integrity-tree
//     verified counter updates, over a simulated ECC DRAM array.
//
//   - Simulator (simulator.go): the timing model. Four out-of-order-ish
//     cores with prefetchers and an MLP window, a three-level cache
//     hierarchy, the counter cache, the memoization table, a banked
//     DRAM channel, and the epoch bandwidth monitor — everything
//     Table I configures — used to regenerate the paper's figures.
package core

import (
	"fmt"

	"counterlight/internal/ctrblock"
	"counterlight/internal/epoch"
	"counterlight/internal/obs"
)

// Scheme selects the memory protection design under evaluation.
type Scheme int

const (
	// NoEnc is the unprotected baseline all figures normalize to.
	NoEnc Scheme = iota
	// Counterless is AES-XTS-style encryption (TME/SEV): no counter
	// traffic, but every LLC read miss pays the AES latency after the
	// data arrives (paper §III).
	Counterless
	// CounterMode is the RMCC baseline: split counters + integrity
	// tree + 64 KB counter cache + AES memoization (paper §II).
	CounterMode
	// CounterModeSingle is Fig. 9's diagnostic: counter mode where
	// each read miss fetches only the missing block's own counter and
	// all writeback counter/tree traffic is dropped, isolating the
	// latency cost of that one access.
	CounterModeSingle
	// CounterLight is the paper's design: EncryptionMetadata in the
	// ECC, no counter traffic on reads, epoch-switched writebacks.
	CounterLight
)

// String names the scheme for reports (its row in the scheme table).
func (s Scheme) String() string {
	if s.known() {
		return schemes[s].name
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Times in picoseconds.
const (
	ns = int64(1000)
	us = int64(1_000_000)
	ms = int64(1_000_000_000)
)

// Config mirrors Table I plus the paper's design knobs.
type Config struct {
	Scheme Scheme

	// Cores and per-core limits.
	Cores int
	MLP   int // max outstanding LLC-bound loads per core (OoO window)

	// Cache hierarchy (sizes in bytes, latencies in ps).
	L1Size, L2Size, L3Size uint64
	L1Ways, L2Ways, L3Ways int
	L1Lat, L2Lat, L3Lat    int64
	BlockSize              uint64
	PrefetchEnabled        bool

	// Memory-encryption machinery.
	CounterCacheSize uint64
	CounterCacheWays int
	CounterCacheLat  int64
	MemoEntries      int   // memoization table entries (128 = 4 KB)
	MemoLat          int64 // memoized-OTP fetch+combine latency (2 ns, Fig. 4)
	MemoizeEnabled   bool
	AESLat           int64 // 10 ns for AES-128, 14 ns for AES-256
	SHA3Lat          int64
	ECCCheckLat      int64 // standard ECC check without encryption (1 ns)
	MetaDecodeLead   int64 // parity arrives this long before the full block (1.25 ns)
	OTPAfterDecode   int64 // decode->OTP via memo table (2 ns total, §IV-D)

	// DRAM.
	BandwidthGBs float64
	MemorySize   uint64
	// RefreshEnabled turns on tREFI/tRFC refresh modeling in the DRAM
	// channel (off by default, matching the evaluation's gem5 setup).
	RefreshEnabled bool

	// Epoch switching (§IV-B).
	EpochLen      int64
	Threshold     float64 // bandwidth utilization threshold
	DynamicSwitch bool    // false = never switch to counterless (ablation)

	// Simulation windows.
	WarmupTime int64
	WindowTime int64
	Seed       int64

	// Observability. None of these affect simulated timing or event
	// ordering; a run with and without them produces identical
	// Results.
	//
	// Obs, when set, receives every subsystem's metrics (labeled
	// scheme=<scheme>) in its registry, and — if its Trace is non-nil
	// — the pipeline's sim-time event stream. When nil, Run uses a
	// private observer so the Stats() views still work.
	Obs *obs.Observer
	// Epochs, when set, receives one obs.EpochSample at every closed
	// epoch boundary of the bandwidth monitor — the live-telemetry
	// seam the timeseries recorder and the monitoring server attach
	// through. When nil the simulator assembles no samples, keeping
	// the hot path allocation-free.
	Epochs obs.Publisher
	// Progress, when set, is called roughly every ProgressEvery
	// picoseconds of simulated time with a status sample (clsim's
	// stderr progress line).
	Progress func(ProgressInfo)
	// ProgressEvery is the simulated time between Progress calls
	// (default 1 ms).
	ProgressEvery int64
}

// ProgressInfo is the periodic status sample handed to
// Config.Progress.
type ProgressInfo struct {
	SimPS        int64      // current simulated time in ps
	Measuring    bool       // inside the measurement window?
	Instructions uint64     // instructions retired in the window so far
	IPC          float64    // per-core IPC over the window so far
	Mode         epoch.Mode // writeback mode currently in effect
}

// DefaultConfig returns Table I's configuration for the given scheme:
// 4 OoO cores at 3.2 GHz; 32 KB/1 MB/8 MB caches at 2/4/17 ns;
// next-line + stride prefetchers; 64 KB 32-way counter cache; 4 KB
// memoization table; AES-128 at 10 ns, SHA-3 at 1 ns; 128 GB of DRAM
// at 25.6 GB/s; 100 µs epochs with a 60% threshold.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme: scheme,
		Cores:  4,
		MLP:    8,

		L1Size: 32 << 10, L1Ways: 8, L1Lat: 2 * ns,
		L2Size: 1 << 20, L2Ways: 16, L2Lat: 4 * ns,
		L3Size: 8 << 20, L3Ways: 16, L3Lat: 17 * ns,
		BlockSize:       64,
		PrefetchEnabled: true,

		CounterCacheSize: ctrblock.CacheBytes,
		CounterCacheWays: ctrblock.CacheWays,
		CounterCacheLat:  2 * ns,
		MemoEntries:      128,
		MemoLat:          2 * ns,
		MemoizeEnabled:   true,
		AESLat:           10 * ns,
		SHA3Lat:          1 * ns,
		ECCCheckLat:      1 * ns,
		MetaDecodeLead:   1250, // 1.25 ns
		OTPAfterDecode:   2 * ns,

		BandwidthGBs: 25.6,
		MemorySize:   128 << 30,

		EpochLen:      100 * us,
		Threshold:     0.60,
		DynamicSwitch: true,

		WarmupTime: 4 * ms,
		WindowTime: 4 * ms,
		Seed:       1,
	}
}

// WithAES256 adjusts the cipher latency for 14-round AES-256
// (§III: 14/10 × 10 ns = 14 ns).
func (c Config) WithAES256() Config {
	c.AESLat = 14 * ns
	return c
}

// Validate rejects configurations the simulator cannot run.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.MLP <= 0 {
		return fmt.Errorf("core: invalid cores=%d mlp=%d", c.Cores, c.MLP)
	}
	if c.BlockSize != 64 {
		return fmt.Errorf("core: block size must be 64, got %d", c.BlockSize)
	}
	if c.BandwidthGBs <= 0 || c.MemorySize == 0 {
		return fmt.Errorf("core: invalid memory config")
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("core: threshold %v out of (0,1]", c.Threshold)
	}
	if c.WindowTime <= 0 {
		return fmt.Errorf("core: window must be positive")
	}
	if !c.Scheme.known() {
		return fmt.Errorf("core: unknown scheme %d", int(c.Scheme))
	}
	return nil
}
