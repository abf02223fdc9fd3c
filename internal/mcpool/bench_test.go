package mcpool

import (
	"runtime"
	"testing"

	"counterlight/internal/core"
)

// benchPool builds a pool at a fixed shard/batch configuration — the
// same shapes cmd/clbench -bench-json pins for the perf trajectory.
func benchPool(b *testing.B, shards, batchMax int, attribution, persist bool) *Pool {
	b.Helper()
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 22
	pool, err := New(Config{
		Shards:      shards,
		BatchMax:    batchMax,
		Attribution: attribution,
		Persist:     persist,
		Engine:      opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pool.Close)
	return pool
}

func benchmarkThroughput(b *testing.B, shards, batchMax int, attribution, persist bool) {
	pool := benchPool(b, shards, batchMax, attribution, persist)
	sched := Schedule(ScheduleConfig{Ops: 4096, Blocks: 1024, ReadFraction: 0.5, Seed: 42})
	workers := runtime.GOMAXPROCS(0)
	// Warm up so engine table builds don't land in the timed region.
	if _, err := RunPartitioned(pool, sched, workers); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPartitioned(pool, sched, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sched)), "ops/iter")
}

// BenchmarkPoolThroughputS4B8 drives the mixed fixed-seed schedule
// through a 4-shard pool with small batches.
func BenchmarkPoolThroughputS4B8(b *testing.B) { benchmarkThroughput(b, 4, 8, false, false) }

// BenchmarkPoolThroughputS8B32 is the default-shaped pool: 8 shards,
// full batches.
func BenchmarkPoolThroughputS8B32(b *testing.B) { benchmarkThroughput(b, 8, 32, false, false) }

// BenchmarkPoolThroughputAttributed is S8B32 with latency attribution
// on — the delta against BenchmarkPoolThroughputS8B32 is the span
// overhead, which is supposed to be noise.
func BenchmarkPoolThroughputAttributed(b *testing.B) { benchmarkThroughput(b, 8, 32, true, false) }

// BenchmarkPoolThroughputPersist is S8B32 with the persistent journal
// on: its B/op over BenchmarkPoolThroughputS8B32 is what journaling
// costs per 4096 ops (encoded records plus the log's growth).
func BenchmarkPoolThroughputPersist(b *testing.B) { benchmarkThroughput(b, 8, 32, false, true) }

// BenchmarkPoolSubmitWait measures one closed-loop submit→wait round
// trip on a warm pool — the per-request latency floor, on the pooled
// zero-alloc SubmitWait path clserve uses.
func BenchmarkPoolSubmitWait(b *testing.B) {
	pool := benchPool(b, 8, 32, false, false)
	var req Request
	req.Kind = OpWrite
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Addr = uint64(i%1024) * 64
		req.Data[0] = byte(i)
		if resp := pool.SubmitWait(req); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkPoolSubmitFuture is the same round trip through the
// future-based Submit path; the delta against BenchmarkPoolSubmitWait
// is the future allocation cost the pooled path removes.
func BenchmarkPoolSubmitFuture(b *testing.B) {
	pool := benchPool(b, 8, 32, false, false)
	var req Request
	req.Kind = OpWrite
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Addr = uint64(i%1024) * 64
		req.Data[0] = byte(i)
		fut, err := pool.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp := fut.Wait(); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}
