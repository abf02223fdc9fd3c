package mcpool

import (
	"errors"
	"testing"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
)

// TestSubmitWaitMatchesFutures replays the same trace through the
// future-based Submit path and the pooled-channel SubmitWait path:
// responses must be identical op for op. Single submitter, so program
// order is the same on both sides.
func TestSubmitWaitMatchesFutures(t *testing.T) {
	opts := testEngineOptions()
	sched := Schedule(ScheduleConfig{Ops: 2000, Blocks: 256, ReadFraction: 0.5, VMs: 2, Seed: 7})

	futPool, err := New(Config{Shards: 4, Watermark: -1, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer futPool.Close()
	waitPool, err := New(Config{Shards: 4, Watermark: -1, Engine: opts})
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

// TestSubmitBatchWait pins the batch submit contract: responses land
// at the request's index, per-shard FIFO order is the slice order, and
// a closed pool surfaces ErrClosed while still collecting the
// already-submitted prefix.
func TestSubmitBatchWait(t *testing.T) {
	p, err := New(Config{Shards: 4, Watermark: -1, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	reqs := make([]Request, 0, 2*n)
	var data cipher.Block
	for i := 0; i < n; i++ {
		data[0] = byte(i)
		reqs = append(reqs, Request{Kind: OpWrite, Addr: uint64(i) * 64, Mode: epoch.CounterMode, Data: data})
	}
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{Kind: OpRead, Addr: uint64(i) * 64})
	}
	resps := make([]Response, len(reqs))
	if err := p.SubmitBatchWait(reqs, resps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w, r := resps[i], resps[n+i]
		if w.Err != nil || r.Err != nil {
			t.Fatalf("block %d: write err %v, read err %v", i, w.Err, r.Err)
		}
		if r.Plain[0] != byte(i) {
			t.Fatalf("block %d: read back %#x, want %#x", i, r.Plain[0], byte(i))
		}
	}

	p.Close()
	if err := p.SubmitBatchWait(reqs[:2], resps[:2]); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatchWait on closed pool = %v, want ErrClosed", err)
	}
	if got := p.SubmitWait(reqs[0]); !errors.Is(got.Err, ErrClosed) {
		t.Fatalf("SubmitWait on closed pool err = %v, want ErrClosed", got.Err)
	}
}

// The synchronous submit paths are the clserve hot path; once the
// channel pools and worker buffers are warm they must not allocate.
// This is the mcpool leg of the allocation-regression gate (the engine
// legs live in internal/core and internal/cipher).
func TestSubmitWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; channel reuse cannot be alloc-free")
	}
	p, err := New(Config{Shards: 4, Watermark: -1, Engine: testEngineOptions()})
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

	// The batch path shares the channel pool plus a pooled slice; warm
	// it once, then require zero steady-state allocations too.
	reqs := make([]Request, 16)
	resps := make([]Response, 16)
	for j := range reqs {
		reqs[j] = Request{Kind: OpRead, Addr: uint64(j) * 64}
	}
	if err := p.SubmitBatchWait(reqs, resps); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.SubmitBatchWait(reqs, resps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SubmitBatchWait allocates %.1f per batch, want 0", allocs)
	}
}
