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
type Cache struct {
	sets      int
	ways      int
	blockSize uint64
	lines     []line // sets*ways, row-major by set
	useClock  uint64

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

// Lookup probes the cache at simulated time now. On a hit it returns
// readyAt, the time at which the line's data is available (now for
// resident lines, the fill-completion time for in-flight lines). On a
// miss the caller is expected to fetch the block and Fill it.
func (c *Cache) Lookup(addr uint64, now int64) (hit bool, readyAt int64) {
	base, tag := c.setFor(addr)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			c.hits.Inc()
			c.useClock++
			c.lines[i].lastUse = c.useClock
			r := c.lines[i].readyAt
			if r < now {
				r = now
			}
			return true, r
		}
	}
	c.misses.Inc()
	return false, 0
}

// Contains probes without touching statistics or LRU state.
func (c *Cache) Contains(addr uint64) bool {
	base, tag := c.setFor(addr)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			return true
		}
	}
	return false
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
// One pass over the set both looks for the tag and picks the victim:
// the first invalid way, else the first way with the least lastUse.
// Invalid lines carry lastUse 0 and valid ones at least 1 (every
// touch advances useClock first), so the first least-lastUse way is
// the first invalid way whenever one exists.
func (c *Cache) Insert(addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	base, tag := c.setFor(addr)
	c.useClock++
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		l := &set[i]
		if l.tag == tag {
			l.dirty = l.dirty || dirty
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			l.lastUse = c.useClock
			return Eviction{}, false
		}
		if l.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	return c.place(base+victim, tag, readyAt, dirty)
}

// Fill is Insert for a block the caller knows is absent, typically
// because it has just missed in Lookup or Write and nothing has
// inserted into this cache since: it skips the tag scan and only picks
// the victim. Filling a present block would leave two lines with the
// same tag; callers that cannot rule that out use Insert.
func (c *Cache) Fill(addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	base, tag := c.setFor(addr)
	c.useClock++
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	return c.place(base+victim, tag, readyAt, dirty)
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
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			c.hits.Inc()
			c.useClock++
			c.lines[i].lastUse = c.useClock
			c.lines[i].dirty = true
			r := c.lines[i].readyAt
			if r < now {
				r = now
			}
			return true, r
		}
	}
	c.misses.Inc()
	return false, 0
}

// Invalidate drops the block if present, returning its dirty state.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	base, tag := c.setFor(addr)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			wasDirty = c.lines[i].dirty
			c.lines[i] = line{tag: invalidTag}
			return wasDirty, true
		}
	}
	return false, false
}
