// Package ctrblock implements the counter storage of counter-mode
// memory encryption: split-counter blocks (one 64-byte block of
// counters serving 128 data blocks) and the integrity tree of counters
// that protects them against replay (paper §II-B, §IV-B).
//
// The package is both functional and address-accurate:
//
//   - Functionally, it stores every data block's write counter,
//     maintains per-node MACs through the tree, verifies counters
//     against replay, and detects counter-block replay — the attack of
//     Fig. 10 that forces Counter-light to keep tree updates on the
//     writeback path.
//
//   - For the performance model, it maps data-block addresses to
//     counter-block addresses and integrity-tree-node addresses in a
//     reserved region of physical memory, so the cache and DRAM models
//     see the same overhead traffic the paper measures (the ~1.6%
//     split-counter storage overhead, §IV-D).
//
// Tree layout: level 0 holds the counter blocks (128 data counters
// each). Each level-l node (l ≥ 1) holds one counter entry per child
// of level l-1, and a MAC binding its entries to its own protecting
// entry one level up; the single top-level node is protected by the
// root counter, which lives on chip where it cannot be replayed.
//
// Like the paper's memory controller, the store keeps verified nodes
// in an on-chip metadata cache (Table I's 64 KB, 32-way counter
// cache). A node enters it only through a verified fetch, and a
// resident node is trusted: verification walks up only to the first
// resident ancestor, and an increment updates the resident counter
// block in place. MACs are computed when a dirty node leaves the
// cache: its parent's entry for it (the root, for the top node) is
// bumped and the node's MAC is stored under the new entry. Replaying
// any {node, MAC} pair in DRAM is therefore detected at that node's
// next verified fetch, against the fresher parent entry.
package ctrblock

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"counterlight/internal/cache"
	"counterlight/internal/crypto/keccak"
	"counterlight/internal/obs"
)

// CountersPerBlock is how many data-block counters share one 64-byte
// counter block under the split-counter layout (paper §IV-B: "each
// counter block under Split Counters serves 128 data blocks").
const CountersPerBlock = 128

// TreeArity is the fan-in of the integrity tree (8-ary, following
// SGX1's tree over counter blocks).
const TreeArity = 8

// CounterMax is the maximum allowed counter value when the
// EncryptionMetadata is 4 bytes: 2^32 - 2. The next value, 2^32 - 1,
// is the counterless flag (paper §IV-C).
const CounterMax = 1<<32 - 2

// CounterlessFlag is the EncryptionMetadata value marking a block as
// counterless-encrypted.
const CounterlessFlag = 1<<32 - 1

// CacheBytes and CacheWays are Table I's counter cache: the on-chip
// metadata cache a memory controller keeps verified counter blocks and
// tree nodes in.
const (
	CacheBytes = 64 << 10
	CacheWays  = 32
)

// setsFor returns the set count of a CacheWays-way metadata cache of
// nodeBytes-byte nodes within a budget of the given bytes: the largest
// power of two that fits, and at least one set.
func setsFor(budget, nodeBytes uint64) int {
	sets := budget / nodeBytes / CacheWays
	if sets == 0 {
		return 1
	}
	return 1 << (bits.Len64(sets) - 1)
}

// Store holds all counters and the integrity tree for one memory
// channel's data region.
type Store struct {
	blockSize  uint64
	dataBlocks uint64 // number of data blocks protected
	// counters[cb] is counter block cb's page of data-block write
	// counters, indexed by data block index mod CountersPerBlock. A
	// page exists only once a counter in it is written (absent = all
	// zero), so a store sized for a whole channel but used as a layout
	// costs nothing, and a counter block's MAC reads its counters with
	// one lookup.
	counters map[uint64]*[CountersPerBlock]uint32

	// entries[l][j], l >= 1, is the counter protecting child j of
	// level l-1 (j indexes counter blocks when l == 1).
	entries []map[uint64]uint32
	// macs[0][cb] is the counter block MAC; macs[l][n] (l >= 1) is the
	// MAC of tree node (l, n).
	macs []map[uint64]uint64

	levelBlocks []uint64 // node count per level (level 0 = counter blocks)
	levelBase   []uint64 // base address of each metadata level in DRAM
	rootCounter uint32   // on-chip root; cannot be replayed
	macKey      []byte
	metaBytes   uint64 // total metadata footprint in bytes

	// tags is the on-chip metadata cache, keyed by node address: the
	// counter blocks and tree nodes that passed a verified fetch. It is
	// built on first use, so a store used only for its address layout
	// holds none. A resident node's counters and entries above are its
	// on-chip copy; its DRAM MAC is stale while it is dirty.
	tags      *cache.Cache
	cacheSets int
	// The cache's event counts as registry series, bumped where the
	// store sees each hit, miss and eviction: a Store serves a pool
	// shard whose metrics are read live, so they stay atomic.
	hits, misses, writebacks, evictions obs.Counter
	// wbq holds the addresses of dirty nodes the cache displaced whose
	// writeback is still pending. They are still on chip (a writeback
	// buffer); drain empties it before every exported call returns.
	wbq []uint64

	// Reusable scratch for the MACs of fetches and writebacks, which
	// run on the counter-mode writeback path, so the gather/serialize
	// buffers live on the Store instead of being allocated per call.
	// Uses never overlap: each nodeMAC call fully consumes its gathered
	// entries before the next gather.
	macBuf    [16 + 4*CountersPerBlock]byte
	neScratch [TreeArity]uint32
}

// zeroCounters stands in for a counter block with no page and backs
// storedMAC's never-written-node recomputation; it is read-only (all
// zeros) and shared by every Store.
var zeroCounters [CountersPerBlock]uint32

// New creates a counter store for a data region of memSize bytes with
// the given block size (normally 64).
func New(memSize, blockSize uint64) (*Store, error) {
	if blockSize == 0 || memSize == 0 || memSize%blockSize != 0 {
		return nil, fmt.Errorf("ctrblock: invalid geometry mem=%d block=%d", memSize, blockSize)
	}
	s := &Store{
		blockSize:  blockSize,
		dataBlocks: memSize / blockSize,
		counters:   make(map[uint64]*[CountersPerBlock]uint32),
		macKey:     []byte("ctrblock-integrity-key"),
		cacheSets:  setsFor(CacheBytes, blockSize),
	}
	n := (s.dataBlocks + CountersPerBlock - 1) / CountersPerBlock
	base := memSize // metadata region starts right after data
	for {
		s.levelBlocks = append(s.levelBlocks, n)
		s.levelBase = append(s.levelBase, base)
		s.entries = append(s.entries, make(map[uint64]uint32)) // entries[0] unused
		s.macs = append(s.macs, make(map[uint64]uint64))
		base += n * blockSize
		if n == 1 {
			break
		}
		n = (n + TreeArity - 1) / TreeArity
	}
	s.metaBytes = base - memSize
	return s, nil
}

// Levels returns the number of metadata levels including the counter
// blocks (level 0) and all tree levels.
func (s *Store) Levels() int { return len(s.levelBlocks) }

// OverheadBytes returns the metadata storage footprint in bytes.
func (s *Store) OverheadBytes() uint64 { return s.metaBytes }

// blockIndex converts a data byte address to a data block index.
func (s *Store) blockIndex(addr uint64) uint64 { return addr / s.blockSize }

// Counter returns the current write counter of the data block at addr.
func (s *Store) Counter(addr uint64) uint32 {
	bi := s.blockIndex(addr)
	return s.counterBlock(bi / CountersPerBlock)[bi%CountersPerBlock]
}

// counterBlock returns counter block cbIdx's counters for reading: its
// page, or the shared zero block when none was ever written.
func (s *Store) counterBlock(cbIdx uint64) *[CountersPerBlock]uint32 {
	if p := s.counters[cbIdx]; p != nil {
		return p
	}
	return &zeroCounters
}

// setCounter stores data block bi's counter, creating its counter
// block's page on first write.
func (s *Store) setCounter(bi uint64, val uint32) {
	p := s.counters[bi/CountersPerBlock]
	if p == nil {
		p = new([CountersPerBlock]uint32)
		s.counters[bi/CountersPerBlock] = p
	}
	p[bi%CountersPerBlock] = val
}

// CounterBlockAddr maps a data address to the address of the counter
// block holding its counter; this is the address the counter cache and
// DRAM model operate on.
func (s *Store) CounterBlockAddr(addr uint64) uint64 {
	return s.nodeAddr(0, s.blockIndex(addr)/CountersPerBlock)
}

// TreeNodeAddr returns the DRAM address of the integrity-tree node at
// the given level on the path protecting the data address, for the
// timing model's tree walk. It covers levels 1 through Levels()-2, and
// ok is false for any other level: the timing model keeps the single
// top-level node on chip with the root counter, as the paper's MC
// does, and charges it no DRAM traffic. The functional store caches
// the top node like any other node, so it can be evicted and fetched
// back against the root; the two agree whenever it stays resident. A
// writeback walks the levels bottom-up; a counter-cache hit cuts the
// walk short.
func (s *Store) TreeNodeAddr(addr uint64, level int) (nodeAddr uint64, ok bool) {
	if level < 1 || level >= len(s.levelBlocks)-1 {
		return 0, false
	}
	idx := s.blockIndex(addr) / CountersPerBlock
	for l := 0; l < level; l++ {
		idx /= TreeArity
	}
	return s.nodeAddr(level, idx), true
}

// protectingEntry returns the counter protecting child j of level
// l-1 — entries[l][j], or the on-chip root when level l is above the
// top node level.
func (s *Store) protectingEntry(l int, j uint64) uint32 {
	if l >= len(s.levelBlocks) {
		return s.rootCounter
	}
	return s.entries[l][j]
}

// nodeMAC computes the MAC binding a node's counters to its level,
// index, and protecting entry one level up.
func (s *Store) nodeMAC(level int, idx uint64, counters []uint32, parentCtr uint32) uint64 {
	buf := s.macBuf[:16+4*len(counters)]
	binary.LittleEndian.PutUint32(buf[0:], uint32(level))
	binary.LittleEndian.PutUint64(buf[4:], idx)
	binary.LittleEndian.PutUint32(buf[12:], parentCtr)
	for i, c := range counters {
		binary.LittleEndian.PutUint32(buf[16+4*i:], c)
	}
	return keccak.MAC64(s.macKey, buf)
}

// nodeEntries gathers the TreeArity entries of tree node (level, idx)
// into the Store's scratch; the returned slice is valid until the
// next gather.
func (s *Store) nodeEntries(level int, idx uint64) []uint32 {
	out := s.neScratch[:]
	for i := range out {
		out[i] = s.entries[level][idx*TreeArity+uint64(i)]
	}
	return out
}

// storedMAC returns the stored MAC for node (level, idx); nodes never
// written still carry the MAC of their initial all-zero state.
func (s *Store) storedMAC(level int, idx uint64) uint64 {
	if m, ok := s.macs[level][idx]; ok {
		return m
	}
	zeros := zeroCounters[:TreeArity]
	if level == 0 {
		zeros = zeroCounters[:]
	}
	// Initial protecting entries are zero as well.
	return s.nodeMAC(level, idx, zeros, 0)
}

// SetCacheSize sizes the metadata cache for a budget of the given
// bytes, rounded down to a power-of-two count of CacheWays-way sets,
// at least one (New starts at CacheBytes). It must be called before
// the store's first verified fetch.
func (s *Store) SetCacheSize(budget uint64) {
	if s.tags != nil {
		panic("ctrblock: SetCacheSize after the metadata cache is in use")
	}
	s.cacheSets = setsFor(budget, s.blockSize)
}

// CacheSets reports the set count of the store's metadata cache.
func (s *Store) CacheSets() int { return s.cacheSets }

// RegisterMetrics exposes the metadata cache's hit, miss, writeback
// and eviction counters through a registry under the given labels.
func (s *Store) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterCounter("cache_hits_total", &s.hits, labels...)
	reg.RegisterCounter("cache_misses_total", &s.misses, labels...)
	reg.RegisterCounter("cache_writebacks_total", &s.writebacks, labels...)
	reg.RegisterCounter("cache_evictions_total", &s.evictions, labels...)
}

// tagStore returns the metadata cache, building it on first use.
func (s *Store) tagStore() *cache.Cache {
	if s.tags == nil {
		c, err := cache.New(uint64(s.cacheSets*CacheWays)*s.blockSize, s.blockSize, CacheWays)
		if err != nil {
			panic(err) // unreachable: setsFor returns a power of two
		}
		s.tags = c
	}
	return s.tags
}

// nodeAddr returns the DRAM address of node idx of the given level.
func (s *Store) nodeAddr(level int, idx uint64) uint64 {
	return s.levelBase[level] + idx*s.blockSize
}

// nodeAt inverts nodeAddr.
func (s *Store) nodeAt(addr uint64) (level int, idx uint64) {
	level = len(s.levelBase) - 1
	for addr < s.levelBase[level] {
		level--
	}
	return level, (addr - s.levelBase[level]) / s.blockSize
}

// computeMAC computes node (level, idx)'s MAC over its current
// contents and protecting entry.
func (s *Store) computeMAC(level int, idx uint64) uint64 {
	contents := s.counterBlock(idx)[:]
	if level > 0 {
		contents = s.nodeEntries(level, idx)
	}
	return s.nodeMAC(level, idx, contents, s.protectingEntry(level+1, idx))
}

// fetch brings node (level, idx) on chip, verifying its DRAM MAC
// against its parent's entry after fetching the parent the same way.
// A resident or writeback-pending node is already trusted. It reports
// false on tampering or replay. Displaced dirty nodes queue on wbq.
func (s *Store) fetch(level int, idx uint64) bool {
	addr := s.nodeAddr(level, idx)
	if hit, _ := s.tagStore().Lookup(addr, 0); hit {
		s.hits.Inc()
		return true
	}
	s.misses.Inc()
	if s.pending(addr) {
		return true
	}
	if level+1 < len(s.levelBlocks) && !s.fetch(level+1, idx/TreeArity) {
		return false
	}
	if s.storedMAC(level, idx) != s.computeMAC(level, idx) {
		return false
	}
	s.insert(addr, false)
	return true
}

// pending reports whether the node at addr awaits writeback.
func (s *Store) pending(addr uint64) bool {
	for _, a := range s.wbq {
		if a == addr {
			return true
		}
	}
	return false
}

// insert places the node at addr in the cache, queueing a displaced
// dirty node for writeback.
func (s *Store) insert(addr uint64, dirty bool) {
	ev, ok := s.tags.Insert(addr, 0, dirty)
	if !ok {
		return
	}
	s.evictions.Inc()
	if ev.Dirty {
		s.writebacks.Inc()
		s.wbq = append(s.wbq, ev.Addr)
	}
}

// markDirty records that the on-chip node at addr changed. A node
// awaiting writeback will be MACed with its contents as they are then.
func (s *Store) markDirty(addr uint64) {
	if !s.pending(addr) {
		s.insert(addr, true)
	}
}

// drain writes back every queued dirty node.
func (s *Store) drain() {
	for len(s.wbq) > 0 {
		addr := s.wbq[len(s.wbq)-1]
		s.wbq = s.wbq[:len(s.wbq)-1]
		s.writeback(s.nodeAt(addr))
	}
}

// writeback moves a dirty node off chip: it fetches the parent, bumps
// the parent's entry for the node (the on-chip root for the top node),
// dirties the parent, and stores the node's MAC under the new entry.
// If the parent fails verification the node's DRAM MAC stays stale,
// so the node's own next verified fetch fails: the tampering is
// reported there, at the address it protects.
func (s *Store) writeback(level int, idx uint64) {
	if level+1 == len(s.levelBlocks) {
		s.rootCounter++
	} else {
		if !s.fetch(level+1, idx/TreeArity) {
			return
		}
		s.entries[level+1][idx]++
		s.markDirty(s.nodeAddr(level+1, idx/TreeArity))
	}
	s.macs[level][idx] = s.computeMAC(level, idx)
}

// VerifyCounter fetches the counter block covering addr onto the chip,
// verifying it and every ancestor up to the first resident one (paper
// §II-B). It reports false on tampering or replay.
func (s *Store) VerifyCounter(addr uint64) bool {
	defer s.drain()
	return s.fetch(0, s.blockIndex(addr)/CountersPerBlock)
}

// Increment advances the data block's counter to newVal (which must
// exceed the current value and not exceed CounterMax). It fetches the
// counter block like VerifyCounter, refusing a block that fails
// verification, and updates it on chip; the tree path catches up when
// the dirty block leaves the cache. This is the writeback-path work
// whose traffic the paper's epoch switch avoids under high bandwidth
// utilization.
func (s *Store) Increment(addr uint64, newVal uint32) error {
	defer s.drain()
	bi := s.blockIndex(addr)
	cb := bi / CountersPerBlock
	if !s.fetch(0, cb) {
		return fmt.Errorf("ctrblock: counter block of %#x fails verification (tampered or replayed)", addr)
	}
	old := s.Counter(addr)
	if newVal <= old {
		return fmt.Errorf("ctrblock: counter must increase (old=%d new=%d)", old, newVal)
	}
	if uint64(newVal) > CounterMax {
		return fmt.Errorf("ctrblock: counter %d exceeds max %d", newVal, uint64(CounterMax))
	}
	s.setCounter(bi, newVal)
	s.markDirty(s.nodeAddr(0, cb))
	return nil
}

// Evict writes back and drops the counter block covering addr and its
// tree path, bottom-up, so the root advances if any of them was dirty.
// Afterwards the counter block's DRAM pair is current: tests capture
// and replay it (CounterBlockMAC, ReplayCounter) only off chip.
func (s *Store) Evict(addr uint64) {
	if s.tags == nil {
		return
	}
	idx := s.blockIndex(addr) / CountersPerBlock
	for level := range s.levelBlocks {
		a := s.nodeAddr(level, idx)
		if dirty, present := s.tags.Invalidate(a); present && dirty {
			s.wbq = append(s.wbq, a)
			s.drain()
		}
		idx /= TreeArity
	}
}

// ForceCounter sets the data block's counter to exactly val and
// refreshes the tree path eagerly, so every node on it has a current
// DRAM MAC and VerifyCounter passes afterwards. Unlike Increment it
// neither verifies nor requires an increase: it is the NVM recovery
// hook, replaying a journaled counter onto a fresh store where the
// tree's absolute entry values are not recoverable (only per-path
// consistency matters — the on-chip root was lost with power anyway).
// Never use it on the writeback path.
func (s *Store) ForceCounter(addr uint64, val uint32) {
	bi := s.blockIndex(addr)
	s.setCounter(bi, val)
	// Bump every path entry, as a writeback of each node would, so
	// replayed state keeps the parents-fresher-than-children shape.
	idx := bi / CountersPerBlock
	for level := 1; level < len(s.levelBlocks); level++ {
		s.entries[level][idx]++
		idx /= TreeArity
	}
	s.rootCounter++
	idx = bi / CountersPerBlock
	for level := range s.levelBlocks {
		s.macs[level][idx] = s.computeMAC(level, idx)
		idx /= TreeArity
	}
}

// ReplayCounter models a physical replay attack: it reverts the data
// block's counter and the counter block's MAC in DRAM to earlier
// captured values without touching the tree. The block's next verified
// fetch must fail; the security tests reproduce Fig. 10's attack with
// it. A replay is a DRAM write, so it panics while the counter block
// is on chip, where the replayed pair would never be read: Evict it
// first.
func (s *Store) ReplayCounter(addr uint64, oldVal uint32, oldMAC uint64) {
	s.mustBeOffChip(addr)
	bi := s.blockIndex(addr)
	s.setCounter(bi, oldVal)
	s.macs[0][bi/CountersPerBlock] = oldMAC
}

// CounterBlockMAC exposes the DRAM MAC of the counter block covering
// addr (what an attacker with a bus probe captures for a replay). It
// panics while the block is on chip, whose DRAM pair is stale once
// dirty: Evict it first.
func (s *Store) CounterBlockMAC(addr uint64) uint64 {
	s.mustBeOffChip(addr)
	return s.storedMAC(0, s.blockIndex(addr)/CountersPerBlock)
}

func (s *Store) mustBeOffChip(addr uint64) {
	if s.tags != nil && s.tags.Contains(s.CounterBlockAddr(addr)) {
		panic(fmt.Sprintf("ctrblock: counter block of %#x is on chip; Evict it before touching its DRAM pair", addr))
	}
}

// RootCounter exposes the on-chip root value (diagnostics/tests).
func (s *Store) RootCounter() uint32 { return s.rootCounter }
