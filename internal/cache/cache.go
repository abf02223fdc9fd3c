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

	"counterlight/internal/obs"
)

// Line states are implicit: a line is valid if tag != invalidTag.
const invalidTag = ^uint64(0)

type line struct {
	tag     uint64
	dirty   bool
	readyAt int64 // simulated time (ps) when the fill completes
	lastUse uint64
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64 // includes hits on in-flight lines
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Evictions  uint64 // all evictions
}

// Cache is a single-level set-associative cache (tag store only; data
// values live in the functional memory model). Event counts live in
// obs instruments so a registry can export them mid-run; Stats()
// stays the legacy view over the same storage.
//
// A Cache belongs to one goroutine: every probe writes to it (a hit
// refreshes LRU state, a miss records the memo below), Contains
// included.
type Cache struct {
	sets      int
	ways      int
	blockSize uint64
	lines     []line // sets*ways, row-major by set
	useClock  uint64

	// The last miss's set base, tag and victim line, taken at
	// useClock memoClock. A miss changes no line, and every hit and
	// Insert advances useClock, so while the clock has not moved the
	// block is still absent and the victim is still the one a scan
	// would pick. Invalidate, which frees a line without advancing
	// the clock, clears the memo.
	memoBase   int
	memoTag    uint64
	memoClock  uint64
	memoVictim int

	hits       obs.Counter
	misses     obs.Counter
	writebacks obs.Counter
	evictions  obs.Counter
}

// New builds a cache of the given total size in bytes. size must be
// ways*blockSize*2^k for some k (power-of-two set count).
func New(size, blockSize uint64, ways int) (*Cache, error) {
	if blockSize == 0 || ways <= 0 || size == 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d block=%d ways=%d", size, blockSize, ways)
	}
	linesTotal := size / blockSize
	if linesTotal == 0 || linesTotal%uint64(ways) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d ways of %d-byte blocks", size, ways, blockSize)
	}
	sets := linesTotal / uint64(ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	c := &Cache{
		sets:      int(sets),
		ways:      ways,
		blockSize: blockSize,
		lines:     make([]line, int(sets)*ways),
		memoTag:   invalidTag,
	}
	for i := range c.lines {
		c.lines[i].tag = invalidTag
	}
	return c, nil
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters (a thin view over the
// obs instruments).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Writebacks: c.writebacks.Value(),
		Evictions:  c.evictions.Value(),
	}
}

// ResetStats zeroes the counters (per measurement window).
func (c *Cache) ResetStats() {
	c.hits.Reset()
	c.misses.Reset()
	c.writebacks.Reset()
	c.evictions.Reset()
}

// RegisterMetrics exposes the cache's counters through a registry
// under the given labels (e.g. level=l1, core=0).
func (c *Cache) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterCounter("cache_hits_total", &c.hits, labels...)
	reg.RegisterCounter("cache_misses_total", &c.misses, labels...)
	reg.RegisterCounter("cache_writebacks_total", &c.writebacks, labels...)
	reg.RegisterCounter("cache_evictions_total", &c.evictions, labels...)
}

func (c *Cache) setFor(addr uint64) (setBase int, tag uint64) {
	blk := addr / c.blockSize
	return int(blk%uint64(c.sets)) * c.ways, blk / uint64(c.sets)
}

// find scans the set at base for tag and returns the line index, or
// -1 on a miss. A miss also picks the line Insert would displace, the
// first with the least lastUse, and records it as the memo. The least
// lastUse so far stays in a local: the pick then compiles to
// conditional moves. Re-reading set[victim] instead costs a bounds
// check and a branch per way, and with it the simulator ran no faster
// than with a second scan per fill.
func (c *Cache) find(base int, tag uint64) int {
	set := c.lines[base : base+c.ways]
	victim, least := 0, ^uint64(0)
	for i := range set {
		if set[i].tag == tag {
			return base + i
		}
		if u := set[i].lastUse; u < least {
			victim, least = i, u
		}
	}
	c.memoBase, c.memoTag, c.memoClock, c.memoVictim = base, tag, c.useClock, base+victim
	return -1
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
		c.misses.Inc()
		return false, 0
	}
	c.hits.Inc()
	c.useClock++
	c.lines[i].lastUse = c.useClock
	return true, max(c.lines[i].readyAt, now)
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
// 1 (every touch advances useClock first), so the first least-lastUse
// way is the first invalid way whenever one exists. When addr is the
// memo's block and the clock has not moved since, the memo holds that
// victim and Insert places the block there without a scan.
func (c *Cache) Insert(addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	base, tag := c.setFor(addr)
	if tag != c.memoTag || base != c.memoBase || c.useClock != c.memoClock {
		if i := c.find(base, tag); i >= 0 {
			c.useClock++
			l := &c.lines[i]
			l.dirty = l.dirty || dirty
			l.readyAt = min(l.readyAt, readyAt)
			l.lastUse = c.useClock
			return Eviction{}, false
		}
	}
	c.useClock++
	return c.place(c.memoVictim, tag, readyAt, dirty)
}

// place overwrites line i with the new block, counting and returning
// the valid block it displaces.
func (c *Cache) place(i int, tag uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	old := c.lines[i]
	if old.tag != invalidTag {
		c.evictions.Inc()
		if old.dirty {
			c.writebacks.Inc()
		}
		ev = Eviction{Addr: c.addrOf(i, old.tag), Dirty: old.dirty}
		evicted = true
	}
	c.lines[i] = line{tag: tag, dirty: dirty, readyAt: readyAt, lastUse: c.useClock}
	return ev, evicted
}

func (c *Cache) addrOf(lineIdx int, tag uint64) uint64 {
	set := uint64(lineIdx / c.ways)
	return (tag*uint64(c.sets) + set) * c.blockSize
}

// Write marks the block dirty if present, returning whether it hit.
// (Write misses are handled by the caller as read-for-ownership plus
// Insert with dirty=true.)
func (c *Cache) Write(addr uint64, now int64) (hit bool, readyAt int64) {
	base, tag := c.setFor(addr)
	i := c.find(base, tag)
	if i < 0 {
		c.misses.Inc()
		return false, 0
	}
	c.hits.Inc()
	c.useClock++
	c.lines[i].lastUse = c.useClock
	c.lines[i].dirty = true
	return true, max(c.lines[i].readyAt, now)
}

// Invalidate drops the block if present, returning its dirty state.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	base, tag := c.setFor(addr)
	i := c.find(base, tag)
	if i < 0 {
		return false, false
	}
	wasDirty = c.lines[i].dirty
	c.lines[i] = line{tag: invalidTag}
	c.memoTag = invalidTag // the freed line may now be the victim
	return wasDirty, true
}
