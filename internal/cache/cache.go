// Package cache models set-associative caches with LRU replacement,
// write-back/write-allocate policy, and in-flight fill tracking.
//
// The same structure serves the L1/L2/L3 data caches of the core model
// and the 64 KB 32-way counter cache of the memory controller
// (Table I). Lines carry a readyAt timestamp so that a demand access
// to a block whose fill (e.g. a prefetch) is still in flight stalls
// only until the fill completes instead of issuing a duplicate memory
// request — the mechanism by which prefetching hides decryption
// latency for regular workloads (paper §III).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"counterlight/internal/obs"
)

// A line is valid if its tag is not invalidTag. Tags are 32 bits:
// setFor panics on a block whose tag does not fit below invalidTag
// rather than let it alias another block.
const invalidTag = ^uint32(0)

// A line's stamp holds its lastUse in the low 31 bits and its dirty
// bit on top, so an eviction reads one word for both. An invalid line's
// stamp is 0.
const (
	dirtyBit  = uint32(1) << 31
	stampMask = dirtyBit - 1 // lastUse bits; useClock never exceeds it
)

// Stats counts cache events.
type Stats struct {
	Hits       uint64 // includes hits on in-flight lines
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Evictions  uint64 // all evictions
}

// Cache is a single-level set-associative cache (tag store only; data
// values live in the functional memory model).
//
// A Cache belongs to one goroutine: every probe writes to it (a hit
// refreshes LRU state, a miss records the memo below), Contains
// included. Its event counts are plain fields for the same reason;
// RegisterMetrics binds them to registry series that the owner
// publishes at its own sync points.
//
// A line takes 16 bytes over three parallel arrays: a probe scans the
// set's tags (one 64-byte host line for 16 ways), reads the stamps
// only on a miss, and readyAt only on a hit.
type Cache struct {
	sets       int
	ways       int
	blockShift uint // log2 of the block size
	setShift   uint // log2 of the set count
	setMask    uint64
	tags       []uint32 // sets*ways, row-major by set
	stamp      []uint32 // lastUse | dirtyBit
	readyAt    []int64  // simulated time (ps) when the fill completes
	useClock   uint32

	// The last miss's set base, tag and victim line, taken at
	// useClock memoClock. A miss changes no line, and every hit and
	// Insert advances useClock, so while the clock has not moved the
	// block is still absent and the victim is still the one a scan
	// would pick. Invalidate, which frees a line without advancing
	// the clock, and renumber, which winds the clock back, clear the
	// memo.
	memoBase   int
	memoTag    uint32
	memoClock  uint32
	memoVictim int

	hits       uint64
	misses     uint64
	writebacks uint64
	evictions  uint64
}

// New builds a cache of the given total size in bytes. blockSize must
// be a power of two, and size must be ways*blockSize*2^k for some k
// (power-of-two set count).
func New(size, blockSize uint64, ways int) (*Cache, error) {
	if blockSize == 0 || ways <= 0 || size == 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d block=%d ways=%d", size, blockSize, ways)
	}
	if blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a power of two", blockSize)
	}
	linesTotal := size / blockSize
	if linesTotal == 0 || linesTotal%uint64(ways) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d ways of %d-byte blocks", size, ways, blockSize)
	}
	sets := linesTotal / uint64(ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	n := int(sets) * ways
	c := &Cache{
		sets:       int(sets),
		ways:       ways,
		blockShift: uint(bits.TrailingZeros64(blockSize)),
		setShift:   uint(bits.TrailingZeros64(sets)),
		setMask:    sets - 1,
		tags:       make([]uint32, n),
		stamp:      make([]uint32, n),
		readyAt:    make([]int64, n),
		memoTag:    invalidTag,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c, nil
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks, Evictions: c.evictions}
}

// ResetStats zeroes the counters (per measurement window).
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.writebacks, c.evictions = 0, 0, 0, 0
}

// RegisterMetrics binds the cache's counters to series under the
// given labels (e.g. level=l1, core=0); m.Publish copies them in.
func (c *Cache) RegisterMetrics(m *obs.Mirror, labels ...obs.Label) {
	m.Counter("cache_hits_total", &c.hits, labels...)
	m.Counter("cache_misses_total", &c.misses, labels...)
	m.Counter("cache_writebacks_total", &c.writebacks, labels...)
	m.Counter("cache_evictions_total", &c.evictions, labels...)
}

func (c *Cache) setFor(addr uint64) (setBase int, tag uint32) {
	blk := addr >> c.blockShift
	t := blk >> c.setShift
	if t >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache: block %#x does not fit the 32-bit tag of a %d-set cache", blk, c.sets))
	}
	return int(blk&c.setMask) * c.ways, uint32(t)
}

// find scans the set at base for tag and returns the line index, or
// -1 on a miss. Only a miss reads the set's stamps: it picks the line
// Insert would displace, the first with the least lastUse, and records
// it as the memo. The least lastUse so far stays in a local, so the
// pick compiles to conditional moves.
func (c *Cache) find(base int, tag uint32) int {
	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == tag {
			return base + i
		}
	}
	stamps := c.stamp[base : base+len(tags)]
	victim, least := 0, ^uint32(0)
	for i, st := range stamps {
		if u := st & stampMask; u < least {
			victim, least = i, u
		}
	}
	c.memoBase, c.memoTag, c.memoClock, c.memoVictim = base, tag, c.useClock, base+victim
	return -1
}

// tick advances useClock and returns it, the lastUse of the line being
// touched. A clock about to leave the stamp's 31 bits renumbers first.
func (c *Cache) tick() uint32 {
	if c.useClock == stampMask {
		c.renumber()
	}
	c.useClock++
	return c.useClock
}

// renumber replaces every valid line's lastUse by its rank among the
// distinct lastUse values of its set (1 for the least), keeps invalid
// lines at 0, and winds useClock back to the largest rank. Stamps are
// only ever compared within one set, so every later victim choice is
// the one the unbounded clock would have made.
func (c *Cache) renumber() {
	top := uint32(0)
	buf := make([]uint32, 0, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		ranks := buf[:0]
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] != invalidTag {
				ranks = append(ranks, c.stamp[i]&stampMask)
			}
		}
		slices.Sort(ranks)
		ranks = slices.Compact(ranks)
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] != invalidTag {
				r, _ := slices.BinarySearch(ranks, c.stamp[i]&stampMask)
				c.stamp[i] = c.stamp[i]&dirtyBit | uint32(r+1)
			}
		}
		top = max(top, uint32(len(ranks)))
	}
	c.useClock = top
	c.memoTag = invalidTag
}

// Lookup probes the cache at simulated time now. On a hit it returns
// readyAt, the time at which the line's data is available (now for
// resident lines, the fill-completion time for in-flight lines). On a
// miss the caller is expected to fetch the block and Insert it; the
// miss has already picked the victim, so that Insert does not scan.
func (c *Cache) Lookup(addr uint64, now int64) (hit bool, readyAt int64) {
	base, tag := c.setFor(addr)
	i := c.find(base, tag)
	if i < 0 {
		c.misses++
		return false, 0
	}
	c.hits++
	t := c.tick()
	c.stamp[i] = c.stamp[i]&dirtyBit | t
	return true, max(c.readyAt[i], now)
}

// Contains probes without touching statistics or LRU state. A miss
// records the memo like any other, so an Insert that follows does not
// scan.
func (c *Cache) Contains(addr uint64) bool {
	base, tag := c.setFor(addr)
	return c.find(base, tag) >= 0
}

// Eviction describes a block displaced by Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Insert fills the block at addr, with the data becoming available at
// readyAt. If an LRU victim must be displaced, it is returned so the
// caller can issue the writeback (when dirty). Inserting an
// already-present block refreshes its readyAt and dirty state.
//
// The victim is the first invalid way, else the first way with the
// least lastUse. Invalid lines carry lastUse 0 and valid ones at least
// 1 (every touch advances useClock first, and renumber ranks from 1),
// so the first least-lastUse way is the first invalid way whenever one
// exists. When addr is the memo's block and the clock has not moved
// since, the memo holds that victim and Insert places the block there
// without a scan.
func (c *Cache) Insert(addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	base, tag := c.setFor(addr)
	if tag != c.memoTag || base != c.memoBase || c.useClock != c.memoClock {
		if i := c.find(base, tag); i >= 0 {
			t := c.tick()
			c.stamp[i] = c.stamp[i]&dirtyBit | dirtyIf(dirty) | t
			c.readyAt[i] = min(c.readyAt[i], readyAt)
			return Eviction{}, false
		}
	}
	victim := c.memoVictim // tick may renumber, which clears the memo
	return c.place(victim, tag, readyAt, dirtyIf(dirty)|c.tick())
}

func dirtyIf(dirty bool) uint32 {
	if dirty {
		return dirtyBit
	}
	return 0
}

// place overwrites line i with the new block and its stamp, counting
// and returning the valid block it displaces.
func (c *Cache) place(i int, tag uint32, readyAt int64, stamp uint32) (ev Eviction, evicted bool) {
	if old := c.tags[i]; old != invalidTag {
		c.evictions++
		ev = Eviction{Addr: c.addrOf(i, old), Dirty: c.stamp[i]&dirtyBit != 0}
		if ev.Dirty {
			c.writebacks++
		}
		evicted = true
	}
	c.tags[i], c.stamp[i], c.readyAt[i] = tag, stamp, readyAt
	return ev, evicted
}

func (c *Cache) addrOf(lineIdx int, tag uint32) uint64 {
	set := uint64(lineIdx / c.ways)
	return (uint64(tag)<<c.setShift | set) << c.blockShift
}

// Write marks the block dirty if present, returning whether it hit.
// (Write misses are handled by the caller as read-for-ownership plus
// Insert with dirty=true.)
func (c *Cache) Write(addr uint64, now int64) (hit bool, readyAt int64) {
	base, tag := c.setFor(addr)
	i := c.find(base, tag)
	if i < 0 {
		c.misses++
		return false, 0
	}
	c.hits++
	c.stamp[i] = dirtyBit | c.tick()
	return true, max(c.readyAt[i], now)
}

// Invalidate drops the block if present, returning its dirty state.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	base, tag := c.setFor(addr)
	i := c.find(base, tag)
	if i < 0 {
		return false, false
	}
	wasDirty = c.stamp[i]&dirtyBit != 0
	c.tags[i], c.stamp[i], c.readyAt[i] = invalidTag, 0, 0
	c.memoTag = invalidTag // the freed line may now be the victim
	return wasDirty, true
}
