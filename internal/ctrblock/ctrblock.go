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
// entry one level up. The single top-level node and the root counter
// live on chip, where they cannot be replayed; every entry on a path
// increments on a writeback, so replaying any {node, MAC} pair in DRAM
// is detected against the fresher parent entry.
package ctrblock

import (
	"encoding/binary"
	"fmt"

	"counterlight/internal/crypto/keccak"
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

	// Reusable scratch for the MAC walks. VerifyCounter + Increment run
	// on every counter-mode writeback (6-7 nodeMAC computations each),
	// so the gather/serialize buffers live on the Store instead of
	// being allocated per call. Uses never overlap: each nodeMAC call
	// fully consumes its gathered entries before the next gather.
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
	return s.levelBase[0] + s.blockIndex(addr)/CountersPerBlock*s.blockSize
}

// TreeNodeAddr returns the DRAM address of the integrity-tree node at
// the given level on the path protecting the data address. The
// DRAM-resident tree levels are 1 through Levels()-2: the top-level
// node (and the root counter) live on chip, so for any other level ok
// is false. A writeback walks the levels bottom-up; a counter-cache
// hit cuts the walk short.
func (s *Store) TreeNodeAddr(addr uint64, level int) (nodeAddr uint64, ok bool) {
	if level < 1 || level >= len(s.levelBlocks)-1 {
		return 0, false
	}
	idx := s.blockIndex(addr) / CountersPerBlock
	for l := 0; l < level; l++ {
		idx /= TreeArity
	}
	return s.levelBase[level] + idx*s.blockSize, true
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

// VerifyCounter walks the tree from the counter block covering addr to
// the on-chip root, recomputing every MAC against the stored one
// (paper §II-B). It reports false on tampering or replay.
func (s *Store) VerifyCounter(addr uint64) bool {
	cbIdx := s.blockIndex(addr) / CountersPerBlock
	want := s.nodeMAC(0, cbIdx, s.counterBlock(cbIdx)[:], s.protectingEntry(1, cbIdx))
	if s.storedMAC(0, cbIdx) != want {
		return false
	}
	idx := cbIdx
	for level := 1; level < len(s.levelBlocks); level++ {
		idx /= TreeArity
		want := s.nodeMAC(level, idx, s.nodeEntries(level, idx), s.protectingEntry(level+1, idx))
		if s.storedMAC(level, idx) != want {
			return false
		}
	}
	return true
}

// Increment advances the data block's counter to newVal (which must
// exceed the current value and not exceed CounterMax), increments the
// protecting entries along the tree path including the on-chip root,
// and refreshes the affected MACs. This is the full writeback-path
// work whose traffic the paper's epoch switch avoids under high
// bandwidth utilization.
func (s *Store) Increment(addr uint64, newVal uint32) error {
	bi := s.blockIndex(addr)
	old := s.Counter(addr)
	if newVal <= old {
		return fmt.Errorf("ctrblock: counter must increase (old=%d new=%d)", old, newVal)
	}
	if uint64(newVal) > CounterMax {
		return fmt.Errorf("ctrblock: counter %d exceeds max %d", newVal, uint64(CounterMax))
	}
	s.setCounter(bi, newVal)
	// Bump the protecting entry of every node on the path; the final
	// bump is the on-chip root.
	idx := bi / CountersPerBlock
	for level := 1; level < len(s.levelBlocks); level++ {
		s.entries[level][idx]++
		idx /= TreeArity
	}
	s.rootCounter++
	s.refreshPathMACs(bi / CountersPerBlock)
	return nil
}

// refreshPathMACs recomputes the MACs of the counter block and every
// tree node on its path after their contents changed.
func (s *Store) refreshPathMACs(cbIdx uint64) {
	s.macs[0][cbIdx] = s.nodeMAC(0, cbIdx, s.counterBlock(cbIdx)[:], s.protectingEntry(1, cbIdx))
	idx := cbIdx
	for level := 1; level < len(s.levelBlocks); level++ {
		idx /= TreeArity
		s.macs[level][idx] = s.nodeMAC(level, idx, s.nodeEntries(level, idx), s.protectingEntry(level+1, idx))
	}
}

// ForceCounter sets the data block's counter to exactly val and
// refreshes the tree path so VerifyCounter passes afterwards. Unlike
// Increment it accepts any value, including the current one: it is
// the NVM recovery hook, replaying a journaled counter onto a fresh
// store where the tree's absolute entry values are not recoverable
// (only per-path consistency matters — the on-chip root was lost with
// power anyway). Never use it on the writeback path.
func (s *Store) ForceCounter(addr uint64, val uint32) {
	bi := s.blockIndex(addr)
	s.setCounter(bi, val)
	// Bump the path entries exactly like Increment so replayed state
	// keeps the parents-fresher-than-children shape.
	idx := bi / CountersPerBlock
	for level := 1; level < len(s.levelBlocks); level++ {
		s.entries[level][idx]++
		idx /= TreeArity
	}
	s.rootCounter++
	s.refreshPathMACs(bi / CountersPerBlock)
}

// ReplayCounter models a physical replay attack: it reverts the data
// block's counter and the counter block's MAC to earlier captured
// values without touching the tree. VerifyCounter must subsequently
// fail; the security tests reproduce Fig. 10's attack with it.
func (s *Store) ReplayCounter(addr uint64, oldVal uint32, oldMAC uint64) {
	bi := s.blockIndex(addr)
	s.setCounter(bi, oldVal)
	s.macs[0][bi/CountersPerBlock] = oldMAC
}

// CounterBlockMAC exposes the stored MAC of the counter block covering
// addr (what an attacker with a bus probe captures for a replay).
func (s *Store) CounterBlockMAC(addr uint64) uint64 {
	return s.storedMAC(0, s.blockIndex(addr)/CountersPerBlock)
}

// RootCounter exposes the on-chip root value (diagnostics/tests).
func (s *Store) RootCounter() uint32 { return s.rootCounter }
