package mcpool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/epoch"
)

// TestSubmitWaitMatchesFutures replays the same trace through the
// future-based Submit path and the pooled-future SubmitWait path:
// responses must be identical op for op. Single submitter, so program
// order is the same on both sides.
func TestSubmitWaitMatchesFutures(t *testing.T) {
	opts := testEngineOptions()
	sched := Schedule(ScheduleConfig{Ops: 2000, Blocks: 256, ReadFraction: 0.5, VMs: 2, Seed: 7})

	futPool, err := New(Config{Shards: 4, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer futPool.Close()
	waitPool, err := New(Config{Shards: 4, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer waitPool.Close()

	for i, req := range sched {
		fut, err := futPool.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		want := fut.Wait()
		got := waitPool.SubmitWait(req)
		if (got.Err == nil) != (want.Err == nil) || got.Plain != want.Plain || got.Mode != want.Mode {
			t.Fatalf("op %d: SubmitWait %+v, Submit+Wait %+v", i, got, want)
		}
	}
}

// TestConcurrentSubmitWaitOwnFutures races SubmitWait callers on
// disjoint blocks: each goroutine writes a payload naming itself and
// the op, then reads it back. A pooled future handed to the wrong
// caller would deliver another goroutine's response.
func TestConcurrentSubmitWaitOwnFutures(t *testing.T) {
	p, err := New(Config{Shards: 4, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const goroutines, ops, blocks = 8, 2000, 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops/2; i++ {
				addr := uint64(g*blocks+i%blocks) * 64
				var data cipher.Block
				data[0], data[1], data[2] = byte(g), byte(i), byte(i>>8)
				if resp := p.SubmitWait(Request{Kind: OpWrite, Addr: addr, Mode: epoch.CounterMode, Data: data}); resp.Err != nil {
					errs <- fmt.Errorf("goroutine %d write %d: %v", g, i, resp.Err)
					return
				}
				if resp := p.SubmitWait(Request{Kind: OpRead, Addr: addr}); resp.Err != nil || resp.Plain != data {
					errs <- fmt.Errorf("goroutine %d read %d: got %x (err %v), want its last payload %x", g, i, resp.Plain[:3], resp.Err, data[:3])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The synchronous submit path is the clserve hot path; once the
// future pool and worker buffers are warm it must not allocate.
// This is the mcpool leg of the allocation-regression gate (the engine
// legs live in internal/core and internal/cipher).
func TestSubmitWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; future reuse cannot be alloc-free")
	}
	p, err := New(Config{Shards: 4, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const blocks = 256
	var req Request
	req.Kind = OpWrite
	req.Mode = epoch.CounterMode
	for i := 0; i < blocks; i++ {
		req.Addr = uint64(i) * 64
		req.Data[0] = byte(i)
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	var i uint64
	if allocs := testing.AllocsPerRun(200, func() {
		req.Addr = (i % blocks) * 64
		req.Data[0] = byte(i)
		i++
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}); allocs != 0 {
		t.Errorf("SubmitWait write allocates %.1f per op, want 0", allocs)
	}

	var rd Request
	rd.Kind = OpRead
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Addr = (i % blocks) * 64
		i++
		if resp := p.SubmitWait(rd); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}); allocs != 0 {
		t.Errorf("SubmitWait read allocates %.1f per op, want 0", allocs)
	}
}

// TestFutureManyWaiters has four goroutines wait on one future while
// its shard is held, so they block before the worker completes it:
// each must get the same response, and a later Wait must return at
// once with it again.
func TestFutureManyWaiters(t *testing.T) {
	p, err := New(Config{Shards: 2, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	req := Request{Kind: OpWrite, Addr: 64, Mode: epoch.CounterMode}
	req.Data[0] = 0x5a
	if resp := p.SubmitWait(req); resp.Err != nil {
		t.Fatal(resp.Err)
	}

	const waiters = 4
	var (
		fut *Future
		got [waiters]Response
		wg  sync.WaitGroup
	)
	p.WithShardEngine(p.ShardOf(req.Addr), func(*core.Engine) {
		if fut, err = p.Submit(Request{Kind: OpRead, Addr: req.Addr}); err != nil {
			return
		}
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = fut.Wait()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g, resp := range got {
		if resp.Err != nil || resp.Plain != req.Data || resp != got[0] {
			t.Errorf("waiter %d: %+v, want the written block like waiter 0 (%+v)", g, resp, got[0])
		}
	}

	again := make(chan Response, 1)
	go func() { again <- fut.Wait() }()
	select {
	case resp := <-again:
		if resp != got[0] {
			t.Errorf("second Wait: %+v, want %+v", resp, got[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second Wait on a completed future blocked")
	}
}

// TestSubmitAllocs pins the future-based round trip at one
// allocation, the Future itself: the response travels inside it.
func TestSubmitAllocs(t *testing.T) {
	p, err := New(Config{Shards: 4, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const blocks = 64
	req := Request{Kind: OpWrite, Mode: epoch.CounterMode}
	for i := 0; i < blocks; i++ {
		req.Addr = uint64(i) * 64
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	var i uint64
	if allocs := testing.AllocsPerRun(200, func() {
		req.Addr = (i % blocks) * 64
		req.Data[0] = byte(i)
		i++
		fut, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp := fut.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}); allocs != 1 {
		t.Errorf("Submit+Wait allocates %.1f per op, want 1", allocs)
	}
}
