package mcpool

import (
	"sync"
	"testing"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/obs"
)

func testEngineOptions() core.EngineOptions {
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 20 // 16384 blocks — plenty for these traces
	return opts
}

// TestShardRouting pins the routing function: pure (same address,
// same shard, always), block-interleaved like the DRAM bank map, and
// spread across every shard.
func TestShardRouting(t *testing.T) {
	p, err := New(Config{Shards: 8, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hit := make([]bool, p.NumShards())
	for block := uint64(0); block < 1024; block++ {
		addr := block * 64
		s := p.ShardOf(addr)
		if s != p.ShardOf(addr) {
			t.Fatalf("ShardOf(%#x) not deterministic", addr)
		}
		if want := int(block % 8); s != want {
			t.Fatalf("ShardOf(%#x) = %d, want block-interleaved %d", addr, s, want)
		}
		hit[s] = true
	}
	for s, ok := range hit {
		if !ok {
			t.Fatalf("shard %d never hit by 1024 consecutive blocks", s)
		}
	}
}

// TestShardCounterCacheGeometry pins how the pool, one memory
// controller, splits Table I's 64 KB counter cache across its shard
// engines: a power-of-two set count of 32 ways each, at least one.
func TestShardCounterCacheGeometry(t *testing.T) {
	for _, tc := range []struct{ shards, sets int }{{8, 4}, {3, 8}, {64, 1}} {
		p, err := New(Config{Shards: tc.shards, Engine: testEngineOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range p.shards {
			if got := s.eng.Counters().CacheSets(); got != tc.sets {
				t.Errorf("%d shards: shard %d cache has %d sets, want %d", tc.shards, i, got, tc.sets)
			}
		}
		p.Close()
	}
}

// serialReplay drives the same trace through a single bare engine,
// tracking per-block mode switches the way the pool does.
func serialReplay(t *testing.T, opts core.EngineOptions, sched []Request) (core.EngineStats, []Response, uint64) {
	t.Helper()
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	resps := make([]Response, len(sched))
	lastMode := make(map[uint64]epoch.Mode)
	var switches uint64
	for i, req := range sched {
		switch req.Kind {
		case OpRead:
			plain, info, err := eng.Read(req.Addr)
			resps[i] = Response{Plain: plain, Info: info, Mode: info.Mode, Err: err}
		case OpWrite:
			err := eng.WriteAs(req.VM, req.Addr, req.Data, req.Mode)
			applied := req.Mode
			if err == nil && eng.IsPermanentCounterless(req.Addr) {
				applied = epoch.Counterless
			}
			resps[i] = Response{Mode: applied, Err: err}
			if err == nil {
				if last, ok := lastMode[req.Addr]; ok && last != applied {
					switches++
				}
				lastMode[req.Addr] = applied
			}
		default:
			t.Fatalf("op %d: unexpected kind %d", i, req.Kind)
		}
	}
	return eng.Stats(), resps, switches
}

// TestPoolMatchesSerialEngine is the bit-identical acceptance check
// at concurrency 1: a single-shard pool applying a trace in
// submission order must be indistinguishable — full EngineStats and
// every per-op response — from a bare serial engine. A 4-shard pool
// fed by one submitter must still agree on every per-op outcome and
// on all order-independent aggregates (memo hit/miss counts split
// across per-shard tables and are excluded).
func TestPoolMatchesSerialEngine(t *testing.T) {
	opts := testEngineOptions()
	sched := Schedule(ScheduleConfig{Ops: 4000, Blocks: 512, ReadFraction: 0.5, VMs: 2, Seed: 42})
	serialStats, serialResps, serialSwitches := serialReplay(t, opts, sched)

	for _, shards := range []int{1, 4} {
		p, err := New(Config{Shards: shards, Engine: opts})
		if err != nil {
			t.Fatal(err)
		}
		resps, err := RunPartitioned(p, sched, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.FlushBarrier()
		agg := p.Aggregate()
		p.Close()

		for i := range resps {
			if (resps[i].Err == nil) != (serialResps[i].Err == nil) {
				t.Fatalf("shards=%d op %d: err %v, serial %v", shards, i, resps[i].Err, serialResps[i].Err)
			}
			if resps[i].Plain != serialResps[i].Plain {
				t.Fatalf("shards=%d op %d: plaintext diverged from serial engine", shards, i)
			}
			if resps[i].Mode != serialResps[i].Mode {
				t.Fatalf("shards=%d op %d: applied mode %v, serial %v", shards, i, resps[i].Mode, serialResps[i].Mode)
			}
			if shards == 1 && resps[i].Info != serialResps[i].Info {
				t.Fatalf("shards=1 op %d: ReadInfo %+v, serial %+v", i, resps[i].Info, serialResps[i].Info)
			}
		}

		if agg.Reads != serialStats.Reads || agg.Writes != serialStats.Writes ||
			agg.CounterModeWrites != serialStats.CounterModeWrites ||
			agg.CounterlessWrites != serialStats.CounterlessWrites ||
			agg.Corrections != serialStats.Corrections || agg.DUEs != serialStats.DUEs ||
			agg.MACFailures != serialStats.MACFailures {
			t.Fatalf("shards=%d: aggregate %+v diverged from serial %+v", shards, agg.EngineStats, serialStats)
		}
		if agg.ModeSwitches != serialSwitches {
			t.Fatalf("shards=%d: %d mode switches, serial counted %d", shards, agg.ModeSwitches, serialSwitches)
		}
		if shards == 1 && (agg.MemoHits != serialStats.MemoHits || agg.MemoMisses != serialStats.MemoMisses) {
			t.Fatalf("shards=1: memo hits/misses %d/%d, serial %d/%d",
				agg.MemoHits, agg.MemoMisses, serialStats.MemoHits, serialStats.MemoMisses)
		}
		if agg.Submitted != uint64(len(sched)) || agg.Completed != uint64(len(sched)) {
			t.Fatalf("shards=%d: submitted/completed %d/%d, want %d", shards, agg.Submitted, agg.Completed, len(sched))
		}
	}
}

// TestConcurrentBackpressure pins the bounded-queue contract
// white-box: with the shard lock held the worker stalls mid-batch, so
// exactly QueueDepth Submits are buffered without blocking, the next
// one blocks rather than being buffered, and once the lock is released
// it returns, the backlog drains and the contention counter records
// the stall.
func TestConcurrentBackpressure(t *testing.T) {
	const (
		queueDepth = 8
		batchMax   = 4
	)
	p, err := New(Config{
		Shards:     1,
		QueueDepth: queueDepth,
		BatchMax:   batchMax,
		Engine:     testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.shards[0]

	s.mu.Lock()
	write := Request{Kind: OpWrite, Addr: 0, Auto: true}
	futs := make([]*Future, 0, queueDepth+2)
	fut, err := p.Submit(write)
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, fut)

	// Wait for the worker to pick up the first request and stall on
	// the held shard lock.
	deadline := time.Now().Add(5 * time.Second)
	for s.contention.Value() == 0 {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("worker never contended for the held shard lock")
		}
		time.Sleep(time.Millisecond)
	}

	// The stalled worker holds the first request in hand; the channel
	// buffers exactly QueueDepth more without blocking a submitter.
	filled := make(chan error, 1)
	go func() {
		for i := 0; i < queueDepth; i++ {
			fut, err := p.Submit(write)
			if err != nil {
				filled <- err
				return
			}
			futs = append(futs, fut)
		}
		filled <- nil
	}()
	select {
	case err := <-filled:
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		s.mu.Unlock()
		t.Fatalf("Submit blocked before QueueDepth=%d requests were queued", queueDepth)
	}
	if got := len(s.q); got != queueDepth {
		s.mu.Unlock()
		t.Fatalf("queue holds %d requests, bound is %d", got, queueDepth)
	}

	// One more must block on the full queue until the worker drains.
	overflow := make(chan *Future, 1)
	go func() {
		fut, err := p.Submit(write)
		if err != nil {
			t.Error(err)
		}
		overflow <- fut
	}()
	select {
	case <-overflow:
		s.mu.Unlock()
		t.Fatalf("Submit past a full queue of %d returned without blocking", queueDepth)
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()
	select {
	case fut := <-overflow:
		futs = append(futs, fut)
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit never returned after the shard lock was released")
	}

	p.FlushBarrier()
	for _, f := range futs {
		if resp := f.Wait(); resp.Err != nil {
			t.Fatalf("queued write failed after drain: %v", resp.Err)
		}
	}
	agg := p.Aggregate()
	if agg.Contention == 0 {
		t.Fatal("contention stall left no trace in the contention counter")
	}
	if agg.MaxQueueDepth < queueDepth {
		t.Fatalf("queue-depth high-water mark %d below the full queue %d", agg.MaxQueueDepth, queueDepth)
	}
}

// TestConcurrentHammerAggregates runs genuinely concurrent submitters
// over disjoint block ranges — with unsynchronized metric readers
// polling mid-flight — and checks the pool's aggregate accounting
// closes exactly. The readers assert the memoize satellite's
// invariant (0 ≤ HitRate ≤ 1) under live concurrent lookups.
func TestConcurrentHammerAggregates(t *testing.T) {
	const (
		submitters = 4
		perWorker  = 1500
		blocks     = 256
	)
	p, err := New(Config{Shards: submitters, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range p.shards {
					if hr := s.eng.Memo().HitRate(); hr < 0 || hr > 1 {
						panic("HitRate out of [0,1] under concurrent traffic")
					}
				}
				p.Sample()
				reg.Snapshot()
			}
		}()
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure error
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Submitter g owns blocks ≡ g (mod submitters); with
			// Shards == submitters it feeds exactly one shard.
			sched := Schedule(ScheduleConfig{Ops: perWorker, Blocks: blocks / submitters, ReadFraction: 0.5, Seed: int64(g)})
			for i := range sched {
				sched[i].Addr = sched[i].Addr*uint64(submitters) + uint64(g)*64
			}
			resps, err := RunPartitioned(p, sched, 1)
			if err == nil {
				for _, resp := range resps {
					if resp.Err != nil {
						err = resp.Err
						break
					}
				}
			}
			if err != nil {
				mu.Lock()
				if failure == nil {
					failure = err
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	p.FlushBarrier()
	agg := p.Aggregate()
	p.Close()
	close(stop)
	readers.Wait()

	if failure != nil {
		t.Fatal(failure)
	}
	total := uint64(submitters * perWorker)
	if agg.Submitted != total || agg.Completed != total {
		t.Fatalf("submitted/completed %d/%d, want %d", agg.Submitted, agg.Completed, total)
	}
	if agg.Reads+agg.Writes != total {
		t.Fatalf("reads %d + writes %d != %d ops", agg.Reads, agg.Writes, total)
	}
	if agg.CounterModeWrites+agg.CounterlessWrites != agg.Writes {
		t.Fatalf("write mode split %d+%d != %d writes",
			agg.CounterModeWrites, agg.CounterlessWrites, agg.Writes)
	}
	if agg.DegradedWrites != 0 {
		t.Fatalf("explicit-mode schedule but %d writes degraded", agg.DegradedWrites)
	}
	snap := reg.Snapshot()
	if got := snap.Value("mcpool_completed_total"); got != float64(total) {
		t.Fatalf("registry mcpool_completed_total = %v, want %d", got, total)
	}
}

// TestPoolClosedSubmit pins the shutdown contract: Submit refuses
// after Close instead of panicking on a closed channel, and Close is
// idempotent.
func TestPoolClosedSubmit(t *testing.T) {
	p, err := New(Config{Shards: 2, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := p.Submit(Request{Kind: OpWrite}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}
