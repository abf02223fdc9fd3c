package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
	"counterlight/internal/obs/prof"
	"counterlight/internal/perf"
)

// runBenchJSON measures the pinned perf-trajectory suite and writes a
// perf.Snapshot to path. The suite is the hot path's contract surface:
// engine read/write ns/op and allocs/op, mcpool throughput at two
// fixed shard/batch configurations, and a clserve-style closed-loop
// submit→wait latency distribution. Names are stable — clreport
// -bench-compare lines snapshots up by result name, so renaming one
// here breaks the trajectory.
func runBenchJSON(path string, quick bool) int {
	snap, err := benchSuite(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clbench: -bench-json: %v\n", err)
		return 1
	}
	if err := snap.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "clbench: -bench-json: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "clbench: wrote %d benchmark results to %s\n", len(snap.Results), path)
	for _, r := range snap.Results {
		fmt.Printf("%-28s %12.1f ns/op %8.1f allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.OpsPerSec > 0 {
			fmt.Printf(" %12.0f ops/s", r.OpsPerSec)
		}
		fmt.Println()
	}
	return 0
}

// measureWindow is how long each benchmark runs; -bench-quick trades
// precision for a CI-smoke-sized wall clock.
func measureWindow(quick bool) time.Duration {
	if quick {
		return 50 * time.Millisecond
	}
	return 500 * time.Millisecond
}

func benchSuite(quick bool) (perf.Snapshot, error) {
	window := measureWindow(quick)
	snap := perf.Snapshot{
		Schema:   perf.SchemaVersion,
		Suite:    "counterlight-pinned",
		Created:  time.Now().UTC().Format(time.RFC3339),
		Go:       runtime.Version(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Cipher:   aes.DefaultBackend(),
		Quick:    quick,
	}
	benches := []struct {
		name string
		run  func(time.Duration) (perf.Result, error)
	}{
		{"cipher/pad_single", benchPadSingle},
		{"cipher/pad_batch32", benchPadBatch},
		{"engine/read_hit", benchEngineRead},
		{"engine/write_counter", benchEngineWrite(epoch.CounterMode)},
		{"engine/write_counterless", benchEngineWrite(epoch.Counterless)},
		{"mcpool/throughput_s4b8", benchPoolThroughput(4, 8)},
		{"mcpool/throughput_s8b32", benchPoolThroughput(8, 32)},
		{"serve/submit_wait", benchSubmitWait},
	}
	for _, b := range benches {
		r, err := b.run(window)
		if err != nil {
			return perf.Snapshot{}, fmt.Errorf("%s: %w", b.name, err)
		}
		r.Name = b.name
		snap.Results = append(snap.Results, r)
	}
	return snap, snap.Validate()
}

// measureLoop times fn (called with an iteration count) in growing
// batches until one batch fills the window, then reports that batch's
// ns/op. Growing keeps the timing overhead amortized without the
// testing.B machinery, whose windows aren't controllable enough for a
// quick CI smoke.
func measureLoop(window time.Duration, fn func(n int)) (iters int64, nsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		if elapsed >= window || n >= 1<<30 {
			return int64(n), float64(elapsed.Nanoseconds()) / float64(n)
		}
		// Aim past the window with headroom, growing at least 2x.
		next := int(float64(n) * 1.5 * float64(window) / float64(elapsed+1))
		if next < n*2 {
			next = n * 2
		}
		n = next
	}
}

// benchCounterMode builds the pad-generation cipher on crypto/aes —
// the unit under test for the cipher/* benches.
func benchCounterMode() (*cipher.CounterMode, error) {
	key := make([]byte, 16)
	key[0] = 0x03
	return cipher.NewCounterMode(key, 0x5eed0fc0de15BAD1, nil)
}

// benchPadSingle measures one PadWithMAC derivation — six AES blocks
// in one batch, the per-read OTP cost.
func benchPadSingle(window time.Duration) (perf.Result, error) {
	cm, err := benchCounterMode()
	if err != nil {
		return perf.Result{}, err
	}
	var ctr uint64
	iters, ns := measureLoop(window, func(n int) {
		for i := 0; i < n; i++ {
			ctr++
			cm.PadWithMAC(ctr, uint64(i%1024)*64)
		}
	})
	allocs := testing.AllocsPerRun(100, func() {
		ctr++
		cm.PadWithMAC(ctr, 64)
	})
	return perf.Result{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs}, nil
}

// benchPadBatch measures PadBatch at 32 pads per call and reports
// per-pad cost, so the delta against cipher/pad_single is the batching
// win.
func benchPadBatch(window time.Duration) (perf.Result, error) {
	cm, err := benchCounterMode()
	if err != nil {
		return perf.Result{}, err
	}
	const batch = 32
	counters := make([]uint64, batch)
	addrs := make([]uint64, batch)
	pads := make([]cipher.Block, batch)
	otps := make([]mix.Word, batch)
	var s cipher.BatchScratch
	var ctr uint64
	fill := func() {
		for j := 0; j < batch; j++ {
			ctr++
			counters[j] = ctr
			addrs[j] = uint64(j) * 64
		}
	}
	iters, ns := measureLoop(window, func(n int) {
		for i := 0; i < n; i += batch {
			fill()
			cm.PadBatch(counters, addrs, pads, otps, &s)
		}
	})
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		cm.PadBatch(counters, addrs, pads, otps, &s)
	})
	return perf.Result{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs / batch}, nil
}

// benchEngine sizes one engine for the microbenchmarks: big enough
// that the touched blocks never alias, small enough to build fast.
func benchEngine() (*core.Engine, error) {
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 22 // 4 MB
	return core.NewEngine(opts)
}

func benchEngineRead(window time.Duration) (perf.Result, error) {
	eng, err := benchEngine()
	if err != nil {
		return perf.Result{}, err
	}
	const blocks = 256
	var data cipher.Block
	for i := 0; i < blocks; i++ {
		data[0] = byte(i)
		if err := eng.Write(uint64(i)*64, data, epoch.CounterMode); err != nil {
			return perf.Result{}, err
		}
	}
	var rerr error
	loop := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := eng.Read(uint64(i%blocks) * 64); err != nil {
				rerr = err
				return
			}
		}
	}
	iters, ns := measureLoop(window, loop)
	if rerr != nil {
		return perf.Result{}, rerr
	}
	var i int
	allocs := testing.AllocsPerRun(100, func() {
		eng.Read(uint64(i%blocks) * 64) //nolint:errcheck // measured above
		i++
	})
	return perf.Result{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs}, nil
}

func benchEngineWrite(mode epoch.Mode) func(time.Duration) (perf.Result, error) {
	return func(window time.Duration) (perf.Result, error) {
		eng, err := benchEngine()
		if err != nil {
			return perf.Result{}, err
		}
		const blocks = 256
		var data cipher.Block
		var werr error
		loop := func(n int) {
			for i := 0; i < n; i++ {
				data[0] = byte(i)
				if err := eng.Write(uint64(i%blocks)*64, data, mode); err != nil {
					werr = err
					return
				}
			}
		}
		iters, ns := measureLoop(window, loop)
		if werr != nil {
			return perf.Result{}, werr
		}
		var i int
		allocs := testing.AllocsPerRun(100, func() {
			data[0] = byte(i)
			eng.Write(uint64(i%blocks)*64, data, mode) //nolint:errcheck // measured above
			i++
		})
		return perf.Result{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs}, nil
	}
}

// benchPoolThroughput drives a deterministic mixed schedule through a
// pool at a fixed shard/batch configuration with GOMAXPROCS racing
// submitters and reports sustained throughput.
func benchPoolThroughput(shards, batchMax int) func(time.Duration) (perf.Result, error) {
	return func(window time.Duration) (perf.Result, error) {
		opts := core.DefaultEngineOptions()
		opts.MemSize = 1 << 22
		// Profiler on: the gated numbers (including allocs/op) must
		// hold with the probes live, since clserve always runs them.
		pool, err := mcpool.New(mcpool.Config{
			Shards:   shards,
			BatchMax: batchMax,
			Profile:  prof.New(aes.DefaultBackend()),
			Engine:   opts,
		})
		if err != nil {
			return perf.Result{}, err
		}
		defer pool.Close()

		sched := mcpool.Schedule(mcpool.ScheduleConfig{
			Ops: 4096, Blocks: 1024, ReadFraction: 0.5, Seed: 42,
		})
		workers := runtime.GOMAXPROCS(0)
		// Warm up once so engine tables are built before timing.
		if _, err := mcpool.RunPartitioned(pool, sched, workers); err != nil {
			return perf.Result{}, err
		}
		var ops int64
		start := time.Now()
		var elapsed time.Duration
		for {
			if _, err := mcpool.RunPartitioned(pool, sched, workers); err != nil {
				return perf.Result{}, err
			}
			ops += int64(len(sched))
			if elapsed = time.Since(start); elapsed >= window {
				break
			}
		}
		ns := float64(elapsed.Nanoseconds()) / float64(ops)
		return perf.Result{
			Iterations: ops,
			NsPerOp:    ns,
			// Cross-shard submit→wait pipelines; allocs/op is the
			// pool-side per-request cost (future + submission).
			AllocsPerOp: poolAllocsPerOp(pool),
			OpsPerSec:   1e9 / ns,
		}, nil
	}
}

// poolAllocsPerOp measures the steady-state allocation cost of one
// submit→wait round trip on an already-warm pool, via the pooled
// synchronous path clserve drives (zero is the contract).
func poolAllocsPerOp(pool *mcpool.Pool) float64 {
	var req mcpool.Request
	req.Kind = mcpool.OpWrite
	var i uint64
	return testing.AllocsPerRun(100, func() {
		req.Addr = (i % 1024) * 64
		req.Data[0] = byte(i)
		i++
		pool.SubmitWait(req)
	})
}

// benchSubmitWait is the clserve path in miniature: one closed-loop
// connection issuing reads and Auto writes over its own block range,
// recording per-request submit→wait latency. It reports qps plus the
// histogram percentiles clserve prints (at most 1/16 above the true
// value).
func benchSubmitWait(window time.Duration) (perf.Result, error) {
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 22
	pool, err := mcpool.New(mcpool.Config{
		Shards: 8, BatchMax: 32,
		Profile: prof.New(aes.DefaultBackend()),
		Engine:  opts,
	})
	if err != nil {
		return perf.Result{}, err
	}
	defer pool.Close()
	var latency obs.Histogram

	const blocks = 1024
	var data cipher.Block
	// Populate the whole working set so every read hits a written block.
	for i := 0; i < blocks; i++ {
		data[0] = byte(i)
		fut, err := pool.Submit(mcpool.Request{Kind: mcpool.OpWrite, Addr: uint64(i) * 64, Data: data})
		if err != nil {
			return perf.Result{}, err
		}
		if resp := fut.Wait(); resp.Err != nil {
			return perf.Result{}, resp.Err
		}
	}

	var ops int64
	start := time.Now()
	var elapsed time.Duration
	for {
		for i := 0; i < 256; i++ {
			var req mcpool.Request
			if i%2 == 0 {
				req = mcpool.Request{Kind: mcpool.OpRead, Addr: uint64(i%blocks) * 64}
			} else {
				data[0] = byte(i)
				req = mcpool.Request{Kind: mcpool.OpWrite, Addr: uint64(i%blocks) * 64, Auto: true, Data: data}
			}
			t0 := time.Now()
			resp := pool.SubmitWait(req)
			latency.Add(time.Since(t0).Nanoseconds())
			if resp.Err != nil {
				return perf.Result{}, resp.Err
			}
			ops++
		}
		if elapsed = time.Since(start); elapsed >= window {
			break
		}
	}
	ns := float64(elapsed.Nanoseconds()) / float64(ops)
	return perf.Result{
		Iterations:  ops,
		NsPerOp:     ns,
		AllocsPerOp: poolAllocsPerOp(pool),
		OpsPerSec:   1e9 / ns,
		Extra: map[string]float64{
			"p50_ns": float64(latency.Quantile(0.50)),
			"p95_ns": float64(latency.Quantile(0.95)),
			"p99_ns": float64(latency.Quantile(0.99)),
		},
	}, nil
}
