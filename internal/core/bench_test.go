package core

import (
	"math/rand"
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
	"counterlight/internal/trace"
)

// benchEngine builds a small engine with a pre-written working set so
// read benchmarks never hit the unwritten-block error path.
func benchEngine(b *testing.B, blocks int) *Engine {
	b.Helper()
	opts := DefaultEngineOptions()
	opts.MemSize = 1 << 22
	eng, err := NewEngine(opts)
	if err != nil {
		b.Fatal(err)
	}
	var data cipher.Block
	for i := 0; i < blocks; i++ {
		data[0] = byte(i)
		if err := eng.Write(uint64(i)*64, data, epoch.CounterMode); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkEngineRead measures the fast-path read: fetch, MAC check,
// decrypt. The working set fits the memo table region, so this is the
// common (hit) case.
func BenchmarkEngineRead(b *testing.B) {
	const blocks = 256
	eng := benchEngine(b, blocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Read(uint64(i%blocks) * 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWriteCounter measures a counter-mode writeback:
// counter bump, integrity-tree touch, encrypt, MAC, ECC encode.
func BenchmarkEngineWriteCounter(b *testing.B) {
	benchmarkEngineWrite(b, epoch.CounterMode)
}

// BenchmarkEngineWriteCounterless measures a counterless writeback —
// the paper's cheap path: no counter traffic at all.
func BenchmarkEngineWriteCounterless(b *testing.B) {
	benchmarkEngineWrite(b, epoch.Counterless)
}

func benchmarkEngineWrite(b *testing.B, mode epoch.Mode) {
	const blocks = 256
	eng := benchEngine(b, blocks)
	var data cipher.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		if err := eng.Write(uint64(i%blocks)*64, data, mode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoHitRate measures the §IV-D memoization claim directly:
// one full counter-light run; the hit rate is reported as a metric.
func BenchmarkMemoHitRate(b *testing.B) {
	w, ok := trace.ByName("canneal")
	if !ok {
		b.Fatal("canneal missing")
	}
	cfg := DefaultConfig(CounterLight)
	cfg.WarmupTime /= 2
	cfg.WindowTime /= 2
	var hit float64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		hit = res.MemoHitRate
	}
	b.ReportMetric(hit, "hit-rate")
}

// BenchmarkMetaStore measures the simulator's per-read
// EncryptionMetadata lookup over a store of 150k blocks (about what
// canneal's Counter-light cell writes): absent blocks, which most
// reads hit and the presence bitmap answers, and present ones, which
// probe the map.
func BenchmarkMetaStore(b *testing.B) {
	const entries, probes = 150_000, 1 << 16
	rng := rand.New(rand.NewSource(1))
	s := newMetaStore()
	var present, absent []uint64
	for len(present) < entries {
		blk := uint64(rng.Int63n(1 << 31))
		s.set(blk, uint32(len(present)))
		present = append(present, blk)
	}
	for len(absent) < probes {
		// No index at or above 2^31 was set.
		absent = append(absent, uint64(rng.Int63n(1<<31))|1<<31)
	}
	for _, c := range []struct {
		name string
		blks []uint64
	}{{"absent", absent}, {"present", present[:probes]}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metaSink += s.get(c.blks[i%probes])
			}
		})
	}
}

// metaSink keeps BenchmarkMetaStore's lookups live.
var metaSink uint32
