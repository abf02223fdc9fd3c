package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// line is one way of refCache, and the view of a Cache way that the
// tests compare with it.
type line struct {
	tag     uint64
	dirty   bool
	readyAt int64
	lastUse uint64
}

const refInvalidTag = ^uint64(0)

// refCache is the oracle the Cache answers to: the 32-byte-line tag
// store the Cache replaced, with 64-bit tags, division-based set
// indexing and an unbounded use clock, and without the miss memo, so
// every probe and every Insert scans. The differential tests hold the
// Cache's returns, lines and counters to it.
type refCache struct {
	sets      int
	ways      int
	blockSize uint64
	lines     []line
	useClock  uint64
	stats     Stats
}

func newRef(size, blockSize uint64, ways int) *refCache {
	r := &refCache{
		sets:      int(size / blockSize / uint64(ways)),
		ways:      ways,
		blockSize: blockSize,
		lines:     make([]line, size/blockSize),
	}
	for i := range r.lines {
		r.lines[i].tag = refInvalidTag
	}
	return r
}

func (r *refCache) setFor(addr uint64) (setBase int, tag uint64) {
	blk := addr / r.blockSize
	return int(blk%uint64(r.sets)) * r.ways, blk / uint64(r.sets)
}

func (r *refCache) find(addr uint64) int {
	base, tag := r.setFor(addr)
	for i := base; i < base+r.ways; i++ {
		if r.lines[i].tag == tag {
			return i
		}
	}
	return -1
}

func (r *refCache) Stats() Stats { return r.stats }

func (r *refCache) Contains(addr uint64) bool { return r.find(addr) >= 0 }

func (r *refCache) Lookup(addr uint64, now int64) (bool, int64) {
	return r.touch(addr, now, false)
}

func (r *refCache) Write(addr uint64, now int64) (bool, int64) {
	return r.touch(addr, now, true)
}

func (r *refCache) touch(addr uint64, now int64, write bool) (bool, int64) {
	i := r.find(addr)
	if i < 0 {
		r.stats.Misses++
		return false, 0
	}
	r.stats.Hits++
	r.useClock++
	l := &r.lines[i]
	l.lastUse = r.useClock
	l.dirty = l.dirty || write
	return true, max(l.readyAt, now)
}

func (r *refCache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	i := r.find(addr)
	if i < 0 {
		return false, false
	}
	wasDirty = r.lines[i].dirty
	r.lines[i] = line{tag: refInvalidTag}
	return wasDirty, true
}

// Insert is the two-pass fill: one scan for the tag, then one for the
// victim (the first invalid way, else the first way with the least
// lastUse).
func (r *refCache) Insert(addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	r.useClock++
	if i := r.find(addr); i >= 0 {
		l := &r.lines[i]
		l.dirty = l.dirty || dirty
		l.readyAt = min(l.readyAt, readyAt)
		l.lastUse = r.useClock
		return Eviction{}, false
	}
	base, tag := r.setFor(addr)
	victim := base
	for i := base; i < base+r.ways; i++ {
		if r.lines[i].tag == refInvalidTag {
			victim = i
			break
		}
		if r.lines[i].lastUse < r.lines[victim].lastUse {
			victim = i
		}
	}
	if old := r.lines[victim]; old.tag != refInvalidTag {
		r.stats.Evictions++
		if old.dirty {
			r.stats.Writebacks++
		}
		set := uint64(victim / r.ways)
		ev = Eviction{Addr: (old.tag*uint64(r.sets) + set) * r.blockSize, Dirty: old.dirty}
		evicted = true
	}
	r.lines[victim] = line{tag: tag, dirty: dirty, readyAt: readyAt, lastUse: r.useClock}
	return ev, evicted
}

// view returns way i of c as a line.
func view(c *Cache, i int) line {
	l := line{tag: uint64(c.tags[i]), dirty: c.stamp[i]&dirtyBit != 0, readyAt: c.readyAt[i], lastUse: uint64(c.stamp[i] & stampMask)}
	if c.tags[i] == invalidTag {
		l.tag = refInvalidTag
	}
	return l
}

// setLine overwrites way i of c with l.
func setLine(c *Cache, i int, l line) {
	c.tags[i], c.stamp[i], c.readyAt[i] = uint32(l.tag), uint32(l.lastUse)|dirtyIf(l.dirty), l.readyAt
}

// wayOf is a memo-free tag scan of c: the way holding addr, or -1.
func wayOf(c *Cache, addr uint64) int {
	base, tag := c.setFor(addr)
	if i := slices.Index(c.tags[base:base+c.ways], tag); i >= 0 {
		return base + i
	}
	return -1
}

// diverged describes how c differs from r, or returns "". Tags, dirty
// bits, ready times and counters must be equal. While the two clocks
// agree, so must every lastUse; once c has renumbered, every pair of
// valid ways in a set must keep its lastUse order.
func diverged(c *Cache, r *refCache) string {
	if c.Stats() != r.Stats() {
		return fmt.Sprintf("stats %+v, reference %+v", c.Stats(), r.Stats())
	}
	exact := uint64(c.useClock) == r.useClock
	for i, want := range r.lines {
		got := view(c, i)
		if got.lastUse > uint64(c.useClock) {
			return fmt.Sprintf("way %d lastUse %d is past the clock %d", i, got.lastUse, c.useClock)
		}
		if !exact && want.tag != refInvalidTag {
			got.lastUse = want.lastUse // compared by order below
		}
		if got != want {
			return fmt.Sprintf("way %d = %+v, reference %+v", i, got, want)
		}
		if exact || want.tag == refInvalidTag {
			continue
		}
		for j := i - i%r.ways; j < i; j++ {
			if r.lines[j].tag == refInvalidTag {
				continue
			}
			cu, ru := c.stamp[i]&stampMask, r.lines[i].lastUse
			cv, rv := c.stamp[j]&stampMask, r.lines[j].lastUse
			if (cu < cv) != (ru < rv) || (cu == cv) != (ru == rv) {
				return fmt.Sprintf("ways %d and %d: lastUse %d and %d, reference %d and %d", i, j, cu, cv, ru, rv)
			}
		}
	}
	return ""
}

type opKind int

const (
	opLookup opKind = iota
	opWrite
	opContains
	opInvalidate
	opInsert
)

type access struct {
	kind  opKind
	addr  uint64
	now   int64
	dirty bool
}

// outcome is everything an access returns, whatever its kind.
type outcome struct {
	hit     bool
	readyAt int64
	ev      Eviction
	evicted bool
}

// tagStore is the API Cache and refCache share.
type tagStore interface {
	Lookup(addr uint64, now int64) (bool, int64)
	Write(addr uint64, now int64) (bool, int64)
	Contains(addr uint64) bool
	Invalidate(addr uint64) (wasDirty, wasPresent bool)
	Insert(addr uint64, readyAt int64, dirty bool) (Eviction, bool)
}

func (a access) run(c tagStore) (o outcome) {
	switch a.kind {
	case opLookup:
		o.hit, o.readyAt = c.Lookup(a.addr, a.now)
	case opWrite:
		o.hit, o.readyAt = c.Write(a.addr, a.now)
	case opContains:
		o.hit = c.Contains(a.addr)
	case opInvalidate:
		o.evicted, o.hit = c.Invalidate(a.addr)
	case opInsert:
		o.ev, o.evicted = c.Insert(a.addr, a.now, a.dirty)
	}
	return o
}

// runBoth applies a to the cache and to the oracle, and fails unless
// both return the same and hold the same lines and counters afterwards.
func runBoth(t *testing.T, step int, c *Cache, r *refCache, a access) {
	t.Helper()
	if got, want := a.run(c), a.run(r); got != want {
		t.Fatalf("step %d: %+v returned %+v, reference %+v", step, a, got, want)
	}
	if d := diverged(c, r); d != "" {
		t.Fatalf("step %d: %+v left the cache diverged from the reference: %s", step, a, d)
	}
}

// memoMatches reports whether an Insert of addr would take the memo's
// victim, and whether the memo names addr's block but the clock has
// moved since.
func memoMatches(c *Cache, addr uint64) (live, stale bool) {
	base, tag := c.setFor(addr)
	named := tag == c.memoTag && base == c.memoBase
	return named && c.useClock == c.memoClock, named && c.useClock != c.memoClock
}

// TestInsertVictimChoice sets one 4-way set to a given state and
// checks which way block 7 lands in. inv marks an invalid way (as
// Invalidate leaves it: lastUse 0). When present, block 7 already
// sits in way victim and must be refreshed there. An absent block is
// inserted twice over: after a Lookup miss, which leaves the victim in
// the memo, and by a bare Insert, which scans.
func TestInsertVictimChoice(t *testing.T) {
	const inv = -1
	cases := []struct {
		name    string
		lastUse [4]int
		victim  int
		present bool
	}{
		{"empty set", [4]int{inv, inv, inv, inv}, 0, false},
		{"invalid way after valid ones", [4]int{3, 1, inv, 2}, 2, false},
		{"first of several invalid ways", [4]int{5, inv, 4, inv}, 1, false},
		{"invalid way 0", [4]int{inv, 1, 2, 3}, 0, false},
		{"full set, least lastUse", [4]int{4, 2, 3, 5}, 1, false},
		{"full set, lastUse tie", [4]int{4, 2, 2, 5}, 1, false},
		{"full set, LRU in the last way", [4]int{4, 2, 3, 1}, 3, false},
		{"refresh after an invalid way", [4]int{inv, 1, 5, inv}, 2, true},
		{"refresh in a full set", [4]int{4, 2, 3, 5}, 3, true},
	}
	const addr = 7 * 64 // block 7; the set holds tags 0..3 unless present
	for _, tc := range cases {
		for _, missFirst := range []bool{false, true} {
			if missFirst && tc.present {
				continue // a present block hits; there is no miss to remember
			}
			c := mustNew(t, 4*64, 64, 4) // one set
			for w, u := range tc.lastUse {
				if u != inv {
					setLine(c, w, line{tag: uint64(w), lastUse: uint64(u), readyAt: 500, dirty: w == tc.victim})
				}
			}
			if tc.present {
				c.tags[tc.victim] = 7
			}
			c.useClock = 10
			if missFirst {
				if hit, _ := c.Lookup(addr, 0); hit {
					t.Fatalf("%s: Lookup hit an absent block", tc.name)
				}
				if live, _ := memoMatches(c, addr); !live || c.memoVictim != tc.victim {
					t.Errorf("%s: the miss left memo victim %d (live %v), want way %d", tc.name, c.memoVictim, live, tc.victim)
				}
			}
			before := make([]line, 4)
			for w := range before {
				before[w] = view(c, w)
			}
			ev, evicted := c.Insert(addr, 99, false)
			want := line{tag: 7, readyAt: 99, lastUse: 11, dirty: tc.present}
			if got := view(c, tc.victim); got != want {
				t.Errorf("%s (miss first %v): way %d = %+v, want %+v", tc.name, missFirst, tc.victim, got, want)
			}
			for w := range before {
				if got := view(c, w); w != tc.victim && got != before[w] {
					t.Errorf("%s (miss first %v): way %d changed to %+v", tc.name, missFirst, w, got)
				}
			}
			wantEvict := !tc.present && tc.lastUse[tc.victim] != inv
			if evicted != wantEvict {
				t.Errorf("%s (miss first %v): evicted = %v, want %v", tc.name, missFirst, evicted, wantEvict)
			}
			if wantEvict && (ev.Addr != uint64(tc.victim)*64 || !ev.Dirty) {
				t.Errorf("%s (miss first %v): eviction = %+v, want dirty addr %d", tc.name, missFirst, ev, tc.victim*64)
			}
		}
	}
}

// TestInsertMemo runs the sequences where the memo a miss leaves must
// not be used, or must be used for the right block only, against the
// memo-free oracle, and checks the way the last Insert fills. The
// cache has two 4-way sets: block b maps to set b%2 with tag b/2.
// Set 0 holds blocks 0, 2, 4, 6 in ways 0-3 with lastUse 4, 2, 3, 5;
// set 1 holds blocks 1, 3, 5, 7 in ways 4-7 with lastUse 6, 8, 1, 7.
// A miss in set 0 picks way 1 and one in set 1 picks way 6.
func TestInsertMemo(t *testing.T) {
	lookup := func(blk uint64) access { return access{kind: opLookup, addr: blk * 64} }
	cases := []struct {
		name string
		ops  []access
		way  int // where the last op's block must land
	}{
		{"invalidate another way between the miss and the Insert", []access{
			lookup(8),
			{kind: opInvalidate, addr: 4 * 64}, // way 2 is freed and must win
			{kind: opInsert, addr: 8 * 64},
		}, 2},
		{"miss in set 0, Insert into set 1", []access{
			lookup(8),
			{kind: opInsert, addr: 9 * 64},
		}, 6},
		{"hit in the same set between the miss and the Insert", []access{
			lookup(8),
			lookup(2), // the victim, way 1, is now the most recent
			{kind: opInsert, addr: 8 * 64},
		}, 2},
		{"two misses, then an Insert of the first", []access{
			lookup(8),
			{kind: opWrite, addr: 9 * 64},
			{kind: opInsert, addr: 8 * 64},
		}, 1},
		{"Insert of the missed block twice", []access{
			lookup(8),
			{kind: opInsert, addr: 8 * 64},
			{kind: opInsert, addr: 8 * 64, dirty: true},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, r := mustNew(t, 8*64, 64, 4), newRef(8*64, 64, 4)
			for w, u := range []uint64{4, 2, 3, 5, 6, 8, 1, 7} {
				l := line{tag: uint64(w % 4), lastUse: u, dirty: w%2 == 0}
				setLine(c, w, l)
				r.lines[w] = l
			}
			c.useClock, r.useClock = 10, 10
			for step, a := range tc.ops {
				runBoth(t, step, c, r, a)
			}
			last := tc.ops[len(tc.ops)-1]
			if got := wayOf(c, last.addr); got != tc.way {
				t.Errorf("block %d landed in way %d, want %d", last.addr/64, got, tc.way)
			}
		})
	}
}

// differential drives a cache and the oracle with the same random
// interleaving of Lookup, Write, Contains, Invalidate and Insert on a
// sets×ways geometry, both clocks starting at clock. Half the Inserts
// and Invalidates reuse the last probed block, so Inserts meet live
// memos, stale ones and none. Every return value, line and counter
// must agree after every step. It returns the cache.
func differential(t *testing.T, seed int64, sets, ways int, clock uint32, steps int) *Cache {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kinds := []opKind{opLookup, opLookup, opLookup, opWrite, opWrite, opContains, opInvalidate, opInsert, opInsert, opInsert}
	size := uint64(sets*ways) * 64
	c, r := mustNew(t, size, 64, ways), newRef(size, 64, ways)
	c.useClock, r.useClock = clock, uint64(clock)
	blocks := 3 * sets * ways // a working set that conflicts
	var last uint64
	var live, stale int
	for step := 0; step < steps; step++ {
		a := access{
			kind:  kinds[rng.Intn(len(kinds))],
			addr:  uint64(rng.Intn(blocks)) * 64,
			now:   int64(rng.Intn(1000)),
			dirty: rng.Intn(3) == 0,
		}
		switch a.kind {
		case opInsert, opInvalidate:
			if rng.Intn(2) == 0 {
				a.addr = last
			}
			if l, s := memoMatches(c, a.addr); a.kind == opInsert && l {
				live++
			} else if a.kind == opInsert && s {
				stale++
			}
		default:
			last = a.addr
		}
		runBoth(t, step, c, r, a)
	}
	if s := r.Stats(); s.Evictions == 0 || s.Writebacks == 0 {
		t.Errorf("%dx%d: stream never evicted (%+v)", sets, ways, s)
	}
	if live < steps/100 || stale < steps/100 {
		t.Errorf("%dx%d: %d Inserts met a live memo and %d a stale one, want %d of each", sets, ways, live, stale, steps/100)
	}
	return c
}

// TestInsertDifferential holds the cache to the oracle on 2- to 32-way
// geometries, one of them a single set.
func TestInsertDifferential(t *testing.T) {
	for i, geo := range []struct{ sets, ways int }{{8, 2}, {4, 4}, {1, 8}, {4, 8}, {2, 16}, {2, 32}} {
		differential(t, 53+int64(i), geo.sets, geo.ways, 0, 20000)
	}
}

// TestRenumberDifferential starts both clocks a few thousand touches
// short of the stamp's 31 bits, so the cache renumbers its stamps
// mid-stream while the oracle's clock runs on: every victim choice
// after the renumbering must still be the oracle's.
func TestRenumberDifferential(t *testing.T) {
	for i, geo := range []struct{ sets, ways int }{{4, 8}, {2, 16}, {2, 32}} {
		c := differential(t, 61+int64(i), geo.sets, geo.ways, stampMask-3000, 20000)
		if c.useClock > stampMask-3000 {
			t.Errorf("%dx%d: clock at %d, never renumbered", geo.sets, geo.ways, c.useClock)
		}
	}
}

// TestWideTagPanics: a block whose tag does not fit in 32 bits must
// panic rather than alias another block's tag.
func TestWideTagPanics(t *testing.T) {
	c := mustNew(t, 2*64, 64, 2) // one set: the tag is the block number
	if c.Contains(uint64(invalidTag-1) * 64) {
		t.Fatal("cold cache holds the widest tag")
	}
	for _, blk := range []uint64{uint64(invalidTag), 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lookup of block %#x did not panic", blk)
				}
			}()
			c.Lookup(blk*64, 0)
		}()
	}
}
