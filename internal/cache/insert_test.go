package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refInsert is the two-pass Insert with no memo: one scan for the tag,
// then one for the victim (the first invalid way, else the first way
// with the least lastUse). The differential test holds Insert to it.
func refInsert(c *Cache, addr uint64, readyAt int64, dirty bool) (ev Eviction, evicted bool) {
	base, tag := c.setFor(addr)
	c.useClock++
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			c.lines[i].dirty = c.lines[i].dirty || dirty
			if readyAt < c.lines[i].readyAt {
				c.lines[i].readyAt = readyAt
			}
			c.lines[i].lastUse = c.useClock
			return Eviction{}, false
		}
	}
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == invalidTag {
			victim = i
			break
		}
		if c.lines[i].lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}
	if c.lines[victim].tag != invalidTag {
		c.evictions.Inc()
		if c.lines[victim].dirty {
			c.writebacks.Inc()
		}
		ev = Eviction{
			Addr:  c.addrOf(victim, c.lines[victim].tag),
			Dirty: c.lines[victim].dirty,
		}
		evicted = true
	}
	c.lines[victim] = line{tag: tag, dirty: dirty, readyAt: readyAt, lastUse: c.useClock}
	return ev, evicted
}

// refFind is the memo-free tag scan behind the reference probes.
func refFind(c *Cache, addr uint64) int {
	base, tag := c.setFor(addr)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == tag {
			return i
		}
	}
	return -1
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

func (a access) run(c *Cache) (o outcome) {
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

// runRef is run on the memo-free reference: every probe and every
// Insert scans.
func (a access) runRef(c *Cache) (o outcome) {
	if a.kind == opInsert {
		o.ev, o.evicted = refInsert(c, a.addr, a.now, a.dirty)
		return o
	}
	i := refFind(c, a.addr)
	o.hit = i >= 0
	switch {
	case a.kind == opContains: // changes nothing
	case a.kind == opInvalidate:
		if o.hit {
			o.evicted = c.lines[i].dirty
			c.lines[i] = line{tag: invalidTag}
		}
	case !o.hit:
		c.misses.Inc()
	default:
		c.hits.Inc()
		c.useClock++
		c.lines[i].lastUse = c.useClock
		c.lines[i].dirty = c.lines[i].dirty || a.kind == opWrite
		o.readyAt = max(c.lines[i].readyAt, a.now)
	}
	return o
}

// runBoth applies a to the memo cache and to the reference, and fails
// unless both return the same and hold the same lines, clock and
// counters afterwards.
func runBoth(t *testing.T, step int, memC, refC *Cache, a access) {
	t.Helper()
	got, want := a.run(memC), a.runRef(refC)
	if got != want {
		t.Fatalf("step %d: %+v returned %+v, reference %+v", step, a, got, want)
	}
	if !slices.Equal(memC.lines, refC.lines) || memC.useClock != refC.useClock || memC.Stats() != refC.Stats() {
		t.Fatalf("step %d: %+v left the cache diverged from the reference\n got %+v\nwant %+v", step, a, memC.lines, refC.lines)
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
					c.lines[w] = line{tag: uint64(w), lastUse: uint64(u), readyAt: 500, dirty: w == tc.victim}
				}
			}
			if tc.present {
				c.lines[tc.victim].tag = 7
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
			before := slices.Clone(c.lines)
			ev, evicted := c.Insert(addr, 99, false)
			want := line{tag: 7, readyAt: 99, lastUse: 11, dirty: tc.present}
			if got := c.lines[tc.victim]; got != want {
				t.Errorf("%s (miss first %v): way %d = %+v, want %+v", tc.name, missFirst, tc.victim, got, want)
			}
			for w := range c.lines {
				if w != tc.victim && c.lines[w] != before[w] {
					t.Errorf("%s (miss first %v): way %d changed to %+v", tc.name, missFirst, w, c.lines[w])
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
// memo-free reference, and checks the way the last Insert fills. The
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
			var caches [2]*Cache
			for i := range caches {
				c := mustNew(t, 8*64, 64, 4)
				for w, u := range []uint64{4, 2, 3, 5, 6, 8, 1, 7} {
					c.lines[w] = line{tag: uint64(w % 4), lastUse: u, dirty: w%2 == 0}
				}
				c.useClock = 10
				caches[i] = c
			}
			memC, refC := caches[0], caches[1]
			for step, a := range tc.ops {
				runBoth(t, step, memC, refC, a)
			}
			last := tc.ops[len(tc.ops)-1]
			if got := refFind(memC, last.addr); got != tc.way {
				t.Errorf("block %d landed in way %d, want %d", last.addr/64, got, tc.way)
			}
		})
	}
}

// TestInsertDifferential drives a cache and its memo-free reference
// with the same random interleaving of Lookup, Write, Contains,
// Invalidate and Insert. Half the Inserts and Invalidates reuse the
// last probed block, so Inserts meet live memos, stale ones and none.
// Every return value, line and counter must agree after every step.
func TestInsertDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	kinds := []opKind{opLookup, opLookup, opLookup, opWrite, opWrite, opContains, opInvalidate, opInsert, opInsert, opInsert}
	for _, geo := range []struct {
		size uint64
		ways int
	}{{4 * 4 * 64, 4}, {8 * 2 * 64, 2}, {1 * 8 * 64, 8}} {
		memC := mustNew(t, geo.size, 64, geo.ways)
		refC := mustNew(t, geo.size, 64, geo.ways)
		blocks := 3 * int(geo.size/64) // a working set that conflicts
		var last uint64
		var live, stale int
		for step := 0; step < 20000; step++ {
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
				if l, s := memoMatches(memC, a.addr); a.kind == opInsert && l {
					live++
				} else if a.kind == opInsert && s {
					stale++
				}
			default:
				last = a.addr
			}
			runBoth(t, step, memC, refC, a)
		}
		if s := refC.Stats(); s.Evictions == 0 || s.Writebacks == 0 {
			t.Errorf("geometry %+v: stream never evicted (%+v)", geo, s)
		}
		if live < 200 || stale < 200 {
			t.Errorf("geometry %+v: %d Inserts met a live memo and %d a stale one, want 200 of each", geo, live, stale)
		}
	}
}
