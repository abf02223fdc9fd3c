package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refInsert is the two-pass Insert the one-pass version replaced: one
// scan for the tag, then one for the victim (the first invalid way,
// else the first way with the least lastUse). The differential test
// holds Insert and Fill to it.
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

// TestInsertVictimChoice sets one 4-way set to a given state and
// checks which way block 7 lands in. inv marks an invalid way (as
// Invalidate leaves it: lastUse 0). When present, block 7 already
// sits in way victim and must be refreshed there; otherwise Fill must
// pick the same way as Insert.
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
		for _, fill := range []bool{false, true} {
			if fill && tc.present {
				continue // Fill is only for absent blocks
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
			insert := c.Insert
			if fill {
				insert = c.Fill
			}
			before := slices.Clone(c.lines)
			ev, evicted := insert(addr, 99, false)
			want := line{tag: 7, readyAt: 99, lastUse: 11, dirty: tc.present}
			if got := c.lines[tc.victim]; got != want {
				t.Errorf("%s (fill=%v): way %d = %+v, want %+v", tc.name, fill, tc.victim, got, want)
			}
			for w := range c.lines {
				if w != tc.victim && c.lines[w] != before[w] {
					t.Errorf("%s (fill=%v): way %d changed to %+v", tc.name, fill, w, c.lines[w])
				}
			}
			wantEvict := !tc.present && tc.lastUse[tc.victim] != inv
			if evicted != wantEvict {
				t.Errorf("%s (fill=%v): evicted = %v, want %v", tc.name, fill, evicted, wantEvict)
			}
			if wantEvict && (ev.Addr != uint64(tc.victim)*64 || !ev.Dirty) {
				t.Errorf("%s (fill=%v): eviction = %+v, want dirty addr %d", tc.name, fill, ev, tc.victim*64)
			}
		}
	}
}

// TestInsertDifferential drives three caches with the same random
// access stream: one fills absent blocks with Fill, one always calls
// Insert, one always calls the two-pass refInsert. Every return value,
// line and counter must agree after every access.
func TestInsertDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, geo := range []struct {
		size uint64
		ways int
	}{{4 * 4 * 64, 4}, {8 * 2 * 64, 2}, {1 * 8 * 64, 8}} {
		fillC := mustNew(t, geo.size, 64, geo.ways)
		insC := mustNew(t, geo.size, 64, geo.ways)
		refC := mustNew(t, geo.size, 64, geo.ways)
		blocks := 3 * int(geo.size/64) // a working set that conflicts
		for step := 0; step < 20000; step++ {
			addr := uint64(rng.Intn(blocks)) * 64
			now := int64(rng.Intn(1000))
			dirty := rng.Intn(3) == 0
			switch op := rng.Intn(10); {
			case op < 4: // demand read: Lookup, fill on a miss
				h1, r1 := fillC.Lookup(addr, now)
				h2, r2 := insC.Lookup(addr, now)
				h3, r3 := refC.Lookup(addr, now)
				if h1 != h3 || h2 != h3 || r1 != r3 || r2 != r3 {
					t.Fatalf("step %d: Lookup(%d) = %v/%d, %v/%d, ref %v/%d", step, addr, h1, r1, h2, r2, h3, r3)
				}
				if !h3 {
					checkInsert(t, step, addr, now, dirty, fillC.Fill, insC, refC)
				}
			case op < 6: // demand write
				h1, _ := fillC.Write(addr, now)
				h2, _ := insC.Write(addr, now)
				h3, _ := refC.Write(addr, now)
				if h1 != h3 || h2 != h3 {
					t.Fatalf("step %d: Write(%d) hit %v/%v, ref %v", step, addr, h1, h2, h3)
				}
				if !h3 {
					checkInsert(t, step, addr, now, true, fillC.Fill, insC, refC)
				}
			case op < 9: // a fill whose block may be present (a victim moving down)
				fill := fillC.Insert
				if !refC.Contains(addr) {
					fill = fillC.Fill
				}
				checkInsert(t, step, addr, now, dirty, fill, insC, refC)
			default:
				fillC.Invalidate(addr)
				insC.Invalidate(addr)
				refC.Invalidate(addr)
			}
			for name, c := range map[string]*Cache{"fill": fillC, "insert": insC} {
				if !slices.Equal(c.lines, refC.lines) || c.useClock != refC.useClock || c.Stats() != refC.Stats() {
					t.Fatalf("step %d: %s cache diverged from the two-pass reference", step, name)
				}
			}
		}
		if s := refC.Stats(); s.Evictions == 0 || s.Writebacks == 0 {
			t.Errorf("geometry %+v: stream never evicted (%+v)", geo, s)
		}
	}
}

func checkInsert(t *testing.T, step int, addr uint64, now int64, dirty bool,
	fill func(uint64, int64, bool) (Eviction, bool), insC, refC *Cache) {
	t.Helper()
	e1, ok1 := fill(addr, now, dirty)
	e2, ok2 := insC.Insert(addr, now, dirty)
	e3, ok3 := refInsert(refC, addr, now, dirty)
	if e1 != e3 || e2 != e3 || ok1 != ok3 || ok2 != ok3 {
		t.Fatalf("step %d: fill(%d) = %+v/%v, Insert = %+v/%v, ref %+v/%v", step, addr, e1, ok1, e2, ok2, e3, ok3)
	}
}
