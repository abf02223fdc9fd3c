package core

import (
	"math"
	"math/rand"
	"testing"
)

// bitSharers returns the n lowest block indexes whose presence bit is
// metaBit(k), k excluded.
func bitSharers(k uint32, n int) []uint64 {
	var out []uint64
	for c := uint64(0); len(out) < n; c++ {
		if uint32(c) != k && metaBit(uint32(c)) == metaBit(k) {
			out = append(out, c)
		}
	}
	return out
}

// TestMetaStoreMatchesMap drives a metaStore and a plain map through
// one random sequence of gets and sets: every get must agree. The keys
// mix scattered block indexes, indexes that share one presence bit
// (some of them never set), and indexes just below 2^32; the values
// include 0 and metaFlag.
func TestMetaStoreMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	keys := []uint64{0, 1, 1 << 31, math.MaxUint32, math.MaxUint32 - 1, math.MaxUint32 - 64}
	for i := 0; i < 64; i++ {
		keys = append(keys, uint64(rng.Int63n(1<<32)))
	}
	shared := bitSharers(0, 6)
	keys = append(keys, shared[:3]...)
	keys = append(keys, bitSharers(math.MaxUint32, 3)...)
	settable := len(keys)
	keys = append(keys, shared[3:]...) // only ever read
	values := []uint32{0, metaFlag, 1, 2, metaFlag - 1}

	s := newMetaStore()
	ref := make(map[uint64]uint32)
	for op := 0; op < 20000; op++ {
		j := rng.Intn(len(keys))
		blk := keys[j]
		if j < settable && rng.Intn(4) == 0 {
			v := values[rng.Intn(len(values))]
			if rng.Intn(2) == 0 {
				v = rng.Uint32()
			}
			s.set(blk, v)
			ref[blk] = v
			continue
		}
		if got, want := s.get(blk), ref[blk]; got != want {
			t.Fatalf("op %d: get(%#x) = %#x, map has %#x", op, blk, got, want)
		}
	}
	for _, blk := range keys {
		if got, want := s.get(blk), ref[blk]; got != want {
			t.Errorf("final get(%#x) = %#x, map has %#x", blk, got, want)
		}
	}
}

// TestMetaStoreRejectsWideBlocks checks that a block index past 32
// bits panics rather than aliasing the block 2^32 below it.
func TestMetaStoreRejectsWideBlocks(t *testing.T) {
	s := newMetaStore()
	for name, op := range map[string]func(){
		"get": func() { s.get(1 << 32) },
		"set": func() { s.set(1<<32+5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of block 2^32 did not panic", name)
				}
			}()
			op()
		}()
	}
	if v := s.get(5); v != 0 {
		t.Errorf("get(5) = %d after the refused set of 2^32+5, want 0", v)
	}
}
