package core

import (
	"fmt"

	"counterlight/internal/cache"
	"counterlight/internal/ctrblock"
	"counterlight/internal/epoch"
)

// MCContext is the narrow seam between a SchemePipeline and the shared
// memory-controller substrate (DRAM channel, counter cache, memoization
// table, epoch monitor, event queue, observability). Pipelines see the
// substrate only through this interface, so a new scheme cannot reach
// into simulator internals and the simulator cannot grow per-scheme
// branches back.
//
// All times are picoseconds of simulated time.
type MCContext interface {
	// Config is the run's (validated, immutable) configuration.
	Config() *Config
	// Measuring reports whether the run is inside the measurement
	// window (warmup traffic must not count toward Result fields).
	Measuring() bool

	// DRAMRead issues a metadata fetch (counter block, tree node) on
	// the DRAM channel at time t, recording it on the epoch bandwidth
	// monitor, and returns its completion time.
	DRAMRead(addr uint64, t int64) int64
	// PostDRAMWrite schedules a posted metadata write (e.g. a dirty
	// counter-cache eviction) through the global event queue so state
	// mutations happen in timestamp order.
	PostDRAMWrite(t int64, addr uint64)
	// PostCounterUpdate schedules the counter-block half of a
	// counter-mode writeback; it is delivered back to the pipeline's
	// CounterUpdate at time t.
	PostCounterUpdate(t int64, addr uint64)
	// PostTreeWalk schedules one integrity-tree level of a walk; it is
	// delivered back to the pipeline's TreeWalkStep at time t.
	PostTreeWalk(t int64, addr uint64, level int, dirty bool)

	// CounterCache is the shared on-chip metadata cache (64 KB, 32-way
	// under Table I).
	CounterCache() *cache.Cache
	// Layout maps data addresses to counter-block and tree-node
	// addresses.
	Layout() *ctrblock.Store

	// MemoLookup probes the AES memoization table, emitting the
	// hit/miss trace event and window statistics.
	MemoLookup(ctr uint32) bool
	// NextWriteCounter picks the next counter value for a writeback
	// under the memoization-friendly update policy (a plain increment
	// when memoization is disabled).
	NextWriteCounter(old uint32) uint32

	// WritebackMode is the epoch monitor's current counter-vs-
	// counterless decision for writebacks arriving at time t.
	WritebackMode(t int64) epoch.Mode

	// CounterArrival records one Fig. 8 sample: counter-known time
	// minus data-arrival time for a demand LLC miss.
	CounterArrival(delta int64)
	// CountWriteback counts a mode-decided writeback toward the
	// Fig. 21 mix (WBTotal, and WBCounterless when counterless).
	CountWriteback(counterless bool)
}

// SchemePipeline is one memory-protection design's timing behavior on
// the memory controller's hot paths. Each scheme (NoEnc, Counterless,
// CounterMode, CounterLight, and any future design) is a self-contained
// pipeline owning its OTP-latency model, counter and tree-walk traffic,
// memoization interaction, and writeback-mode decisions, wired to the
// shared substrate through MCContext.
//
// A pipeline instance belongs to exactly one run and is never shared,
// so implementations may keep per-block state in plain maps.
type SchemePipeline interface {
	// ReadMiss is the LLC-read-miss decrypt path: given the miss's MC
	// arrival time tm and the DRAM completion time of the data block,
	// return when the decrypted data is usable (Figs. 7 and 13).
	// demand distinguishes demand misses from prefetches.
	ReadMiss(addr uint64, tm, dataDone int64, demand bool) int64
	// Writeback performs the scheme's metadata work for an LLC
	// writeback arriving at tw (the data write itself is charged by
	// the substrate; writebacks are posted and never stall the core).
	Writeback(addr uint64, tw int64)
	// CounterUpdate services a deferred counter-block update the
	// pipeline scheduled via PostCounterUpdate.
	CounterUpdate(addr uint64, t int64)
	// TreeWalkStep services one integrity-tree level the pipeline
	// scheduled via PostTreeWalk.
	TreeWalkStep(addr uint64, level int, dirty bool, t int64)
}

// metaFlag marks a counterless block in a pipeline's per-block
// metadata (the uint32 view of ctrblock.CounterlessFlag).
const metaFlag = uint32(ctrblock.CounterlessFlag)

// modeOf is the one source of truth, shared by the timing pipelines
// and the functional Engine, for which encryption mode a block's
// EncryptionMetadata value selects.
func modeOf(meta uint64) epoch.Mode {
	if meta == ctrblock.CounterlessFlag {
		return epoch.Counterless
	}
	return epoch.CounterMode
}

// schemes is the scheme table, indexed by Scheme: each row names a
// scheme and builds its pipeline for one run. Adding a design (a
// Sealer-style in-SRAM AES, a BipBip-style low-latency cipher) is one
// more Scheme constant and one more row; Scheme.String, SchemeByName,
// SchemeNames, Config.Validate and Run all read this table.
var schemes = [...]struct {
	name  string
	build func(ctx MCContext) SchemePipeline
}{
	NoEnc:             {"noenc", func(ctx MCContext) SchemePipeline { return &noEncPipeline{ctx: ctx} }},
	Counterless:       {"counterless", func(ctx MCContext) SchemePipeline { return &counterlessPipeline{ctx: ctx} }},
	CounterMode:       {"countermode", func(ctx MCContext) SchemePipeline { return newCounterModePipeline(ctx, true) }},
	CounterModeSingle: {"countermode-single", func(ctx MCContext) SchemePipeline { return newCounterModePipeline(ctx, false) }},
	CounterLight:      {"counterlight", func(ctx MCContext) SchemePipeline { return newCounterLightPipeline(ctx) }},
}

// known reports whether s is a row of the scheme table.
func (s Scheme) known() bool { return s >= 0 && int(s) < len(schemes) }

// SchemeByName resolves a scheme name (the Scheme.String form) back to
// its id.
func SchemeByName(name string) (Scheme, bool) {
	for s, e := range schemes {
		if e.name == name {
			return Scheme(s), true
		}
	}
	return 0, false
}

// SchemeNames lists every scheme name in id order, for help text and
// error messages.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for s, e := range schemes {
		names[s] = e.name
	}
	return names
}

// newSchemePipeline builds the run's pipeline — the single remaining
// scheme dispatch on the MC paths, taken once per run.
func newSchemePipeline(cfg *Config, ctx MCContext) (SchemePipeline, error) {
	if !cfg.Scheme.known() {
		return nil, fmt.Errorf("core: unknown scheme %d", int(cfg.Scheme))
	}
	return schemes[cfg.Scheme].build(ctx), nil
}

// counterTraffic is the counter-block machinery shared by every
// counter-carrying pipeline: the per-block EncryptionMetadata map, the
// memoization-aware OTP latency model, deferred counter-block updates,
// and integrity-tree walks.
type counterTraffic struct {
	ctx  MCContext
	meta map[uint64]uint32 // data block index -> counter (or metaFlag)
}

func newCounterTraffic(ctx MCContext) counterTraffic {
	return counterTraffic{ctx: ctx, meta: make(map[uint64]uint32)}
}

// blockMeta returns the block's current EncryptionMetadata value.
func (ct *counterTraffic) blockMeta(blk uint64) uint32 { return ct.meta[blk] }

// bumpCounter advances a block's counter with the memoization-friendly
// policy (or a plain increment when memoization is disabled).
func (ct *counterTraffic) bumpCounter(blk uint64) {
	old := ct.meta[blk]
	if old == metaFlag {
		old = 0 // re-entering counter mode; real HW reads the counter block
	}
	if ct.ctx.Config().MemoizeEnabled {
		ct.meta[blk] = ct.ctx.NextWriteCounter(old)
	} else {
		ct.meta[blk] = old + 1
	}
}

// memoOTP charges the memoization table (hit: hitLat) or a full AES
// recomputation, counting window statistics through the context.
func (ct *counterTraffic) memoOTP(ctr uint32, hitLat int64) int64 {
	cfg := ct.ctx.Config()
	if !cfg.MemoizeEnabled {
		return cfg.AESLat
	}
	if ct.ctx.MemoLookup(ctr) {
		return hitLat
	}
	return cfg.AESLat
}

// CounterUpdate is the counter-block half of a counter-mode writeback:
// hit or fetch the counter block, dirty it, advance the counter, and
// kick off the tree walk.
func (ct *counterTraffic) CounterUpdate(addr uint64, t int64) {
	ctx := ct.ctx
	blk := addr / ctx.Config().BlockSize
	cbAddr := ctx.Layout().CounterBlockAddr(addr)
	cc := ctx.CounterCache()
	if hit, _ := cc.Lookup(cbAddr, t); hit {
		cc.Write(cbAddr, t)
		ct.bumpCounter(blk)
		ctx.PostTreeWalk(t, addr, 0, true)
		return
	}
	done := ctx.DRAMRead(cbAddr, t)
	if ev, ok := cc.Insert(cbAddr, done, true); ok && ev.Dirty {
		ctx.PostDRAMWrite(done, ev.Addr)
	}
	ct.bumpCounter(blk)
	ctx.PostTreeWalk(done, addr, 0, true)
}

// TreeWalkStep fetches one integrity-tree level of a walk, scheduling
// the next level after the fetch completes. The walk stops at the
// first counter-cache hit (that level and everything above it was
// verified when it was brought in).
func (ct *counterTraffic) TreeWalkStep(addr uint64, level int, dirty bool, t int64) {
	ctx := ct.ctx
	// Walk step level fetches tree level level+1: level 0 holds the
	// counter blocks, which Writeback and CounterUpdate fetch.
	na, ok := ctx.Layout().TreeNodeAddr(addr, level+1)
	if !ok {
		return
	}
	cc := ctx.CounterCache()
	if hit, _ := cc.Lookup(na, t); hit {
		if dirty {
			cc.Write(na, t)
		}
		return
	}
	done := ctx.DRAMRead(na, t)
	if ev, ok := cc.Insert(na, done, dirty); ok && ev.Dirty {
		ctx.PostDRAMWrite(done, ev.Addr)
	}
	ctx.PostTreeWalk(done, addr, level+1, dirty)
}

// noCounterTraffic gives schemes without counter metadata (NoEnc,
// Counterless) no-op writeback and deferred-event handlers.
type noCounterTraffic struct{}

func (noCounterTraffic) Writeback(uint64, int64)               {}
func (noCounterTraffic) CounterUpdate(uint64, int64)           {}
func (noCounterTraffic) TreeWalkStep(uint64, int, bool, int64) {}
