package mcpool

import (
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/obs"
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
	if got := pf.SubmitWait.Count(); got != uint64(n) {
		t.Errorf("probe Count %d, want %d (refused submits must still count)", got, n)
	}
	reg := obs.NewRegistry()
	pf.Register(reg)
	if got := reg.Snapshot().Value("prof_submit_wait_ns"); got != 2 {
		t.Errorf("probe histogram holds %v samples, want 2: errored submits vanished from the probe", got)
	}
}

// RestoreShard splices recovered durable state under a fresh pool:
// the journal seq continues where the dead pool's durable epoch left
// off (no reuse, no gap at the splice point), and restoring over a
// shard that has already applied traffic is rejected.
func TestRestoreShardSeqSplice(t *testing.T) {
	opts := testEngineOptions()
	a, err := New(Config{Shards: 2, Persist: true, Engine: opts})
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

	b, err := New(Config{Shards: 2, Persist: true, Engine: opts})
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
