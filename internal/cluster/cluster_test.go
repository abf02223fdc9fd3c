package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Node.Engine == (core.EngineOptions{}) {
		cfg.Node.Engine = core.DefaultEngineOptions()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// Routing splits consecutive blocks evenly across the nodes, and
// every node's blocks reach all of its shards: with 2 nodes of 2
// shards, a plain block interleave would send node 1 only odd blocks,
// all on its shard 1.
func TestNodeOfSpreadsShards(t *testing.T) {
	c := testCluster(t, Config{Nodes: 2, Node: mcpool.Config{Shards: 2, Watermark: -1}})
	const blocks = 4096
	var perNode [2]int
	var perShard [2][2]int
	for b := uint64(0); b < blocks; b++ {
		n := c.NodeOf(b * 64)
		if c.NodeOf(b*64+63) != n {
			t.Fatalf("block %d: offsets split across nodes", b)
		}
		perNode[n]++
		perShard[n][c.nodes[n].pool.ShardOf(b*64)]++
	}
	for n := range perNode {
		if perNode[n] != blocks/2 {
			t.Errorf("node %d owns %d of %d blocks, want half", n, perNode[n], blocks)
		}
		for s, got := range perShard[n] {
			if got == 0 {
				t.Errorf("node %d shard %d receives no blocks: the two interleaves alias", n, s)
			}
		}
	}
}

// A cluster serves a deterministic schedule exactly like a single
// pool would: every write lands, every read returns the last write.
func TestClusterServesSchedule(t *testing.T) {
	c := testCluster(t, Config{Nodes: 3, Node: mcpool.Config{Shards: 2, Watermark: -1}})
	sched := mcpool.Schedule(mcpool.ScheduleConfig{Ops: 2000, Blocks: 256, ReadFraction: 0.3, Seed: 7})
	last := map[uint64][64]byte{}
	for _, req := range sched {
		resp := c.SubmitWait(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if req.Kind == mcpool.OpWrite {
			last[req.Addr] = req.Data
		}
	}
	for addr, want := range last {
		resp := c.Read(addr)
		if resp.Err != nil {
			t.Fatalf("read %#x: %v", addr, resp.Err)
		}
		if resp.Plain != want {
			t.Fatalf("read %#x returned wrong payload", addr)
		}
	}
	a := c.Aggregate()
	if a.NodesUp != 3 || a.Writes == 0 || a.Reads == 0 {
		t.Fatalf("aggregate looks wrong: %+v", a)
	}
}

// The admission policy: with MaxDegradedFrac 0.4 on a 2-node cluster,
// one node down (1/2 > 0.4) rejects EVERYTHING with ErrOverloaded —
// including requests the surviving node could serve. Disabling
// admission (negative frac) degrades per-address instead: dead-node
// addresses fail ErrNodeDown, live-node addresses keep working.
func TestAdmissionPolicy(t *testing.T) {
	c := testCluster(t, Config{Nodes: 2, MaxDegradedFrac: 0.4, Node: mcpool.Config{Shards: 1, Watermark: -1}})
	if resp := c.SubmitWait(mcpool.Request{Kind: mcpool.OpWrite, Addr: 0, Data: [64]byte{1}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0, 64} { // node 0 and node 1 addresses
		if resp := c.SubmitWait(mcpool.Request{Kind: mcpool.OpRead, Addr: addr}); !errors.Is(resp.Err, ErrOverloaded) {
			t.Fatalf("addr %#x past the degraded knee: err %v, want ErrOverloaded", addr, resp.Err)
		}
	}
	if got := c.Aggregate(); got.Shed != 2 {
		t.Fatalf("shed counter %d, want 2", got.Shed)
	}

	open := testCluster(t, Config{Nodes: 2, MaxDegradedFrac: -1, Node: mcpool.Config{Shards: 1, Watermark: -1}})
	if resp := open.SubmitWait(mcpool.Request{Kind: mcpool.OpWrite, Addr: 64, Data: [64]byte{2}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if err := open.Kill(0); err != nil {
		t.Fatal(err)
	}
	if resp := open.Read(0); !errors.Is(resp.Err, ErrNodeDown) {
		t.Fatalf("dead-node read: err %v, want ErrNodeDown", resp.Err)
	}
	if resp := open.Read(64); resp.Err != nil {
		t.Fatalf("live-node read with admission disabled: %v", resp.Err)
	}
	if got := open.Aggregate(); got.DownSubmits != 1 {
		t.Fatalf("down-submit counter %d, want 1", got.DownSubmits)
	}
}

// Drain fences: in-flight work is flushed durable, new submissions
// are refused, and the fence is permanent until Close.
func TestDrain(t *testing.T) {
	c := testCluster(t, Config{Nodes: 2, Node: mcpool.Config{Shards: 2, Watermark: -1, Persist: true}})
	for _, req := range mcpool.Schedule(mcpool.ScheduleConfig{Ops: 300, Blocks: 128, Seed: 9}) {
		if resp := c.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	seqs := c.Drain()
	if len(seqs) != 2 || seqs[0] == nil || seqs[1] == nil {
		t.Fatalf("drain barrier seqs %v", seqs)
	}
	if !c.Draining() {
		t.Fatal("Draining false after Drain")
	}
	if resp := c.SubmitWait(mcpool.Request{Kind: mcpool.OpRead}); !errors.Is(resp.Err, ErrDraining) {
		t.Fatalf("post-drain submit: err %v, want ErrDraining", resp.Err)
	}
	// Drained means durable: every journaled seq is at or below the
	// barrier, and verification over the fenced history is clean.
	ms, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		t.Errorf("mismatch: %s", m)
	}
}

// The full chaos cycle, serially: traffic, kill, traffic around the
// hole, restart (recovering through internal/nvm), more traffic,
// drain — then the whole multi-segment history must verify bit-clean
// and every acknowledged write must read back.
func TestKillRestartVerify(t *testing.T) {
	rec := flight.NewRing(256)
	c := testCluster(t, Config{
		Nodes:           2,
		MaxDegradedFrac: -1,
		Flight:          rec,
		Node:            mcpool.Config{Shards: 2, Watermark: -1, Persist: true},
	})
	sched := mcpool.Schedule(mcpool.ScheduleConfig{Ops: 3000, Blocks: 256, ReadFraction: 0.25, Seed: 21})
	last := map[uint64][64]byte{}
	run := func(reqs []mcpool.Request) {
		t.Helper()
		for _, req := range reqs {
			resp := c.SubmitWait(req)
			if errors.Is(resp.Err, ErrNodeDown) {
				continue // the hole: rejected, not acknowledged
			}
			if resp.Err != nil {
				if _, ok := last[req.Addr]; req.Kind == mcpool.OpRead && !ok {
					// The block's only write bounced off the dead
					// node, so this read of it is allowed to fail.
					continue
				}
				t.Fatal(resp.Err)
			}
			if req.Kind == mcpool.OpWrite {
				last[req.Addr] = req.Data
			}
		}
	}
	run(sched[:1000])
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err == nil {
		t.Fatal("double kill succeeded")
	}
	run(sched[1000:2000]) // node 1's share bounces off ErrNodeDown
	reps, err := c.Restart(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("recovery reports for %d shards, want 2", len(reps))
	}
	for _, rep := range reps {
		if rep.Torn {
			t.Errorf("shard %d: torn recovery from a cleanly killed node", rep.Shard)
		}
		if rep.Replayed == 0 {
			t.Errorf("shard %d: nothing recovered", rep.Shard)
		}
	}
	run(sched[2000:])
	c.Drain()

	ms, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		t.Errorf("mismatch: %s", m)
	}
	c.draining.Store(false) // reopen for the read-back oracle
	for addr, want := range last {
		resp := c.Read(addr)
		if resp.Err != nil {
			t.Fatalf("read %#x after chaos: %v", addr, resp.Err)
		}
		if resp.Plain != want {
			t.Fatalf("read %#x: stale or wrong data after kill/restart", addr)
		}
	}
	a := c.Aggregate()
	if a.Kills != 1 || a.Restarts != 1 || a.NodesUp != 2 {
		t.Fatalf("chaos accounting: %+v", a)
	}
}

// BreakRecovery is the verification teeth: dropping the newest
// durable record before recovery MUST surface as stale data on
// read-back. If this test fails, the chaos campaign's oracle has no
// teeth.
func TestRestartBreakRecoveryDetected(t *testing.T) {
	c := testCluster(t, Config{
		Nodes:           1,
		MaxDegradedFrac: -1,
		BreakRecovery:   true,
		Node:            mcpool.Config{Shards: 1, Watermark: -1, Persist: true},
	})
	w := func(b byte) {
		t.Helper()
		if resp := c.SubmitWait(mcpool.Request{Kind: mcpool.OpWrite, Addr: 0, Data: [64]byte{b}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	w(1)
	w(2) // the newest durable record — BreakRecovery will eat it
	c.FlushBarrier()
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	resp := c.Read(0)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Plain == ([64]byte{2}) {
		t.Fatal("broken recovery returned fresh data — the oracle cannot detect lost writes")
	}
	if resp.Plain != ([64]byte{1}) {
		t.Fatalf("broken recovery returned neither generation: %v", resp.Plain[:4])
	}
}

// Chaos under real concurrency (run with -race): submitters hammer
// the cluster while a controller kills and restarts a node
// mid-traffic. Acknowledged history must verify bit-clean afterwards.
func TestClusterChaosConcurrent(t *testing.T) {
	c := testCluster(t, Config{
		Nodes:           2,
		MaxDegradedFrac: -1,
		Node:            mcpool.Config{Shards: 2, QueueDepth: 64, Watermark: -1, Persist: true},
	})
	sched := mcpool.Schedule(mcpool.ScheduleConfig{Ops: 4000, Blocks: 256, ReadFraction: 0.3, Seed: 33})
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, req := range sched {
				// Partition by block so each block's op order is one
				// goroutine's program order.
				if int(req.Addr/64)%workers != g {
					continue
				}
				for {
					resp := c.SubmitWait(req)
					if errors.Is(resp.Err, ErrNodeDown) || errors.Is(resp.Err, ErrOverloaded) {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if resp.Err != nil {
						t.Errorf("op %d: %v", i, resp.Err)
					}
					break
				}
			}
		}(g)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(5 * time.Millisecond)
		if err := c.Kill(1); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := c.Restart(1); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	<-killed
	c.Drain()
	ms, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		t.Errorf("mismatch: %s", m)
	}
	if a := c.Aggregate(); a.Kills != 1 || a.Restarts != 1 {
		t.Fatalf("chaos accounting: %+v", a)
	}
}

// Sample keeps a stable column layout across node death: a down node
// contributes zero-depth shard columns, not a shorter row.
func TestSampleStableColumns(t *testing.T) {
	c := testCluster(t, Config{Nodes: 2, MaxDegradedFrac: -1, Node: mcpool.Config{Shards: 3, Watermark: -1}})
	if got := len(c.Sample().QueueDepths); got != 6 {
		t.Fatalf("sample columns %d, want 6", got)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Sample().QueueDepths); got != 6 {
		t.Fatalf("sample columns after kill %d, want 6", got)
	}
	if wm := c.Watermarks(); wm[0] != -1 {
		t.Fatalf("dead node watermark %d, want -1", wm[0])
	}
}

// The verifier still catches a bad op with no plaintext in the
// journal: re-encode one record of a closed segment with one field
// altered, and Verify must name that record's seq.
func TestVerifyCatchesTamperedEntry(t *testing.T) {
	c := testCluster(t, Config{Nodes: 1, MaxDegradedFrac: -1, Node: mcpool.Config{Shards: 1, Watermark: -1, Persist: true}})
	for _, req := range []mcpool.Request{
		{Kind: mcpool.OpWrite, Addr: 0, Data: [64]byte{1}},
		{Kind: mcpool.OpWrite, Addr: 64, Mode: epoch.Counterless, Data: [64]byte{2}},
		{Kind: mcpool.OpRead, Addr: 0},
		{Kind: mcpool.OpFault, Addr: 64, Chip: 2, Pattern: 1},
		{Kind: mcpool.OpRead, Addr: 64},
	} {
		if resp := c.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	seg := &c.nodes[0].segs[0]
	clean := seg.Plogs
	entries, _, err := mcpool.DecodeJournal(clean[0])
	if err != nil {
		t.Fatal(err)
	}
	if ms, err := c.Verify(); err != nil || len(ms) > 0 {
		t.Fatalf("clean history: err %v, mismatches %v", err, ms)
	}
	for _, tc := range []struct {
		name   string
		kind   mcpool.OpKind
		tamper func(*mcpool.Entry)
	}{
		{"read Sum", mcpool.OpRead, func(e *mcpool.Entry) { e.Sum ^= 1 }},
		{"write Sum", mcpool.OpWrite, func(e *mcpool.Entry) { e.Sum ^= 1 }},
		{"write codeword", mcpool.OpWrite, func(e *mcpool.Entry) { e.CW.Data[0] ^= 1 }},
		{"write mode", mcpool.OpWrite, func(e *mcpool.Entry) { e.Mode = 1 - e.Mode }},
		{"fault error bit", mcpool.OpFault, func(e *mcpool.Entry) { e.Err = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plog []byte
			var seq uint64
			for _, e := range entries {
				if seq == 0 && e.Kind == tc.kind {
					tc.tamper(&e)
					seq = e.Seq
				}
				plog = mcpool.AppendEntry(plog, e)
			}
			seg.Plogs = [][]byte{plog}
			defer func() { seg.Plogs = clean }()
			ms, err := c.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 || ms[0].Seq != seq {
				t.Fatalf("tampered seq %d: mismatches %v", seq, ms)
			}
			t.Log(ms[0])
		})
	}
}
