package nvm

import (
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

func shardPool(t *testing.T, opts core.EngineOptions) *mcpool.Pool {
	t.Helper()
	p, err := mcpool.New(mcpool.Config{Shards: 4, Persist: true, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// RecoverShards round trip: run traffic through a persisted pool, take
// its per-shard journals at a FlushBarrier, "kill" it, and rebuild a
// fresh pool — every shard engine must match the dead one bit for bit
// (codeword, counter, ownership, permanent-counterless), and the
// recovered pool must serve reads and journal onward from the
// recovered seqs.
func TestRecoverShardsRoundTrip(t *testing.T) {
	opts := core.DefaultEngineOptions()
	opts.VMs = 2
	dead := shardPool(t, opts)
	sched := mcpool.Schedule(mcpool.ScheduleConfig{Ops: 3000, Blocks: 512, ReadFraction: 0.3, VMs: 2, Seed: 11})
	for _, req := range sched {
		if resp := dead.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	seqs := dead.FlushBarrier()
	journals := make([][]byte, dead.NumShards())
	for s := range journals {
		journals[s] = dead.PersistedJournal(s)
	}

	rec := flight.NewRing(64)
	alive := shardPool(t, opts)
	defer alive.Close()
	reps, err := RecoverShards(alive, journals, rec)
	if err != nil {
		t.Fatal(err)
	}
	for s, rep := range reps {
		if rep.Torn {
			t.Errorf("shard %d: torn tail in a barrier-complete journal", s)
		}
		if rep.Seq != seqs[s] {
			t.Errorf("shard %d: recovered to seq %d, barrier said %d", s, rep.Seq, seqs[s])
		}
		if rep.Replayed == 0 {
			t.Errorf("shard %d: nothing replayed", s)
		}
	}
	if rec.Recorded() != uint64(alive.NumShards()) {
		t.Errorf("flight recorded %d recovery events, want %d", rec.Recorded(), alive.NumShards())
	}
	for s := 0; s < alive.NumShards(); s++ {
		dead.WithShardEngine(s, func(want *core.Engine) {
			alive.WithShardEngine(s, func(got *core.Engine) {
				requireRecovered(t, got, want)
			})
		})
	}
	dead.Close()

	// The recovered pool is live: reads of recovered blocks succeed and
	// return the payloads the dead pool stored.
	want := map[uint64][64]byte{}
	for _, req := range sched {
		if req.Kind == mcpool.OpWrite {
			want[req.Addr] = req.Data
		}
	}
	for addr, data := range want {
		resp := alive.SubmitWait(mcpool.Request{Kind: mcpool.OpRead, Addr: addr})
		if resp.Err != nil {
			t.Fatalf("read %#x after recovery: %v", addr, resp.Err)
		}
		if resp.Plain != data {
			t.Fatalf("read %#x after recovery returned stale or wrong data", addr)
		}
	}
}

// A torn tail — the crash-mid-append signature — is truncated: the
// shard recovers to the last complete record and reports Torn.
func TestRecoverShardsTornTail(t *testing.T) {
	opts := core.DefaultEngineOptions()
	dead := shardPool(t, opts)
	for _, req := range mcpool.Schedule(mcpool.ScheduleConfig{Ops: 500, Blocks: 128, Seed: 5}) {
		if resp := dead.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	dead.FlushBarrier()
	journals := make([][]byte, dead.NumShards())
	for s := range journals {
		journals[s] = dead.PersistedJournal(s)
	}
	dead.Close()

	whole, _, err := mcpool.DecodeJournal(journals[0])
	if err != nil || len(whole) < 2 {
		t.Fatalf("shard 0 journal: %d entries, err %v", len(whole), err)
	}
	journals[0] = journals[0][:len(journals[0])-3] // tear the last record

	alive := shardPool(t, opts)
	defer alive.Close()
	reps, err := RecoverShards(alive, journals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reps[0].Torn {
		t.Error("shard 0: torn tail not reported")
	}
	if reps[0].Replayed != len(whole)-1 {
		t.Errorf("shard 0: replayed %d entries, want %d (torn record truncated)", reps[0].Replayed, len(whole)-1)
	}
	if reps[0].Seq != whole[len(whole)-2].Seq {
		t.Errorf("shard 0: recovered seq %d, want %d", reps[0].Seq, whole[len(whole)-2].Seq)
	}
	for s := 1; s < len(reps); s++ {
		if reps[s].Torn {
			t.Errorf("shard %d: spurious torn tail", s)
		}
	}
}

// Shard-count mismatches and corrupt records are refused outright —
// recovery must never silently rebuild half a topology.
func TestRecoverShardsRejects(t *testing.T) {
	opts := core.DefaultEngineOptions()
	pool := shardPool(t, opts)
	defer pool.Close()
	if _, err := RecoverShards(pool, make([][]byte, 2), nil); err == nil {
		t.Error("shard-count mismatch accepted")
	}
	bad := make([][]byte, pool.NumShards())
	bad[1] = []byte{9, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9} // CRC cannot match
	if _, err := RecoverShards(pool, bad, nil); err == nil {
		t.Error("corrupt journal record accepted")
	}
}

// An op the engine rejects — both fields arrive unvalidated through
// HTTP /v1 — is journaled with its error bit and skipped by recovery:
// one bad request must not make the whole shard unrecoverable.
func TestRecoverShardsSkipsRejectedOps(t *testing.T) {
	opts := core.DefaultEngineOptions()
	for _, tc := range []struct {
		name string
		req  mcpool.Request
	}{
		{"write with VM 99", mcpool.Request{Kind: mcpool.OpWrite, Addr: 64, VM: 99}},
		{"write past MemSize", mcpool.Request{Kind: mcpool.OpWrite, Addr: opts.MemSize}},
		{"fault past MemSize", mcpool.Request{Kind: mcpool.OpFault, Addr: opts.MemSize, Chip: 1, Pattern: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dead := shardPool(t, opts)
			good := mcpool.Request{Kind: mcpool.OpWrite, Addr: 64}
			good.Data[0] = 0x5a
			if resp := dead.SubmitWait(good); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if resp := dead.SubmitWait(tc.req); resp.Err == nil {
				t.Fatal("engine accepted the bad op")
			}
			dead.FlushBarrier()
			journals := make([][]byte, dead.NumShards())
			for s := range journals {
				journals[s] = dead.PersistedJournal(s)
			}
			alive := shardPool(t, opts)
			defer alive.Close()
			if _, err := RecoverShards(alive, journals, nil); err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			for s := 0; s < dead.NumShards(); s++ {
				dead.WithShardEngine(s, func(want *core.Engine) {
					alive.WithShardEngine(s, func(got *core.Engine) {
						requireRecovered(t, got, want)
					})
				})
			}
			dead.Close()
			if resp := alive.SubmitWait(mcpool.Request{Kind: mcpool.OpRead, Addr: 64}); resp.Err != nil || resp.Plain != good.Data {
				t.Fatalf("read after recovery: err %v, plaintext intact %v", resp.Err, resp.Plain == good.Data)
			}
		})
	}
}
