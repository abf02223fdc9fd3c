package mcpool

import (
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/obs/prof"
)

// SubmitWait's probe accounting on the error path: errored submits
// (ErrClosed) must complete the probe — every Start matched by a Done
// — so a shutdown burst shows up in the submit-wait distribution
// instead of leaking out of the sampled count. The probe samples 1 in
// DefaultSubmitSample starts, so 2×DefaultSubmitSample refused calls
// must land exactly 2 completed samples.
func TestSubmitWaitProbeRecordsErrors(t *testing.T) {
	pf := prof.New("test")
	p, err := New(Config{Shards: 1, Engine: testEngineOptions(), Profile: pf})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	n := 2 * prof.DefaultSubmitSample
	for i := 0; i < n; i++ {
		if resp := p.SubmitWait(Request{Kind: OpRead}); resp.Err != ErrClosed {
			t.Fatalf("SubmitWait on closed pool: err %v, want ErrClosed", resp.Err)
		}
	}
	sw := pf.SubmitWait.Snapshot()
	if sw.Count != uint64(n) {
		t.Errorf("probe Count %d, want %d (refused submits must still count)", sw.Count, n)
	}
	if want := uint64(2); sw.Sampled != want {
		t.Errorf("probe Sampled %d, want %d: errored submits vanished from the probe", sw.Sampled, want)
	}
}

// Shedding is the node-level admission signal: false while queues sit
// below the watermark, true once any shard's backlog reaches it, and
// always false with degradation disabled.
func TestShedding(t *testing.T) {
	off, err := New(Config{Shards: 1, Watermark: -1, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.Shedding() {
		t.Fatal("Shedding true with degradation disabled")
	}

	p, err := New(Config{Shards: 1, QueueDepth: 64, BatchMax: 8, Watermark: 16, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shedding() {
		t.Fatal("Shedding true on an idle pool")
	}
	// Hold the shard lock so the worker stalls mid-batch, then pile a
	// backlog past the watermark: the worker can hold at most one
	// BatchMax batch, so at least 32-8 requests sit queued.
	s := p.shards[0]
	s.mu.Lock()
	var futs []*Future
	for i := 0; i < 32; i++ {
		fut, err := p.Submit(Request{Kind: OpWrite, Addr: uint64(i) * 64, Data: [64]byte{1}})
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	shedding := p.Shedding()
	s.mu.Unlock()
	if !shedding {
		t.Error("Shedding false with backlog past the watermark")
	}
	for _, fut := range futs {
		if resp := fut.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	p.FlushBarrier()
	if p.Shedding() {
		t.Error("Shedding true after the backlog drained")
	}
}

// RestoreShard splices recovered durable state under a fresh pool:
// the journal seq continues where the dead pool's durable epoch left
// off (no reuse, no gap at the splice point), and restoring over a
// shard that has already applied traffic is rejected.
func TestRestoreShardSeqSplice(t *testing.T) {
	opts := testEngineOptions()
	a, err := New(Config{Shards: 2, Watermark: -1, Persist: true, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range Schedule(ScheduleConfig{Ops: 400, Blocks: 64, Seed: 3}) {
		if resp := a.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	seqs := a.FlushBarrier()
	plogs := make([][]byte, a.NumShards())
	for s := range plogs {
		plogs[s] = a.PersistedJournal(s)
	}
	a.Close()

	b, err := New(Config{Shards: 2, Watermark: -1, Persist: true, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for s := 0; s < b.NumShards(); s++ {
		entries, _, err := DecodeJournal(plogs[s])
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if err := b.RestoreShard(s, plogs[s], seqs[s], func(eng *core.Engine) error {
			for _, e := range entries {
				if err := e.Apply(eng); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	if got := b.FlushBarrier(); got[0] != seqs[0] || got[1] != seqs[1] {
		t.Fatalf("barrier seqs after restore %v, want %v", got, seqs)
	}
	// Restoring again — the shard has state now — must be refused.
	if err := b.RestoreShard(0, nil, 0, nil); err == nil {
		t.Fatal("RestoreShard over a restored shard succeeded")
	}
	// New traffic journals at seq > the restored epoch, no reuse.
	for _, req := range Schedule(ScheduleConfig{Ops: 200, Blocks: 64, Seed: 4}) {
		if resp := b.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	b.FlushBarrier()
	for s := 0; s < b.NumShards(); s++ {
		entries, _, err := DecodeJournal(b.PersistedJournal(s))
		if err != nil {
			t.Fatalf("shard %d after splice: %v", s, err)
		}
		var last uint64
		for _, e := range entries {
			if e.Seq <= last {
				t.Fatalf("shard %d: seq %d after %d — splice reused or skipped sequence numbers", s, e.Seq, last)
			}
			last = e.Seq
		}
		if last <= seqs[s] {
			t.Fatalf("shard %d: no entries past the restored epoch %d", s, seqs[s])
		}
	}
}
