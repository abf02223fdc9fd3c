package check

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/cluster"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

// Cluster chaos mode: the same generated programs the concurrent
// harness replays, driven through a multi-node cluster while a
// controller kills and restarts a node mid-traffic. The oracle is
// layered:
//
//  1. Transport: every op is either acknowledged or rejected with a
//     capacity error (ErrNodeDown while the killed node is dark) —
//     acknowledged ops appear in exactly one segment journal, tagged;
//     rejected ops appear in none.
//  2. Order: each block is owned by one (node, shard) stream, so the
//     tags in that stream — across segments, in seq order — must be
//     strictly increasing (the submitter's program order survives the
//     kill).
//  3. Continuity: per-shard journal seqs must be strictly increasing
//     across the kill/restart boundary. A recovery that silently lost
//     durable entries restarts the seq counter low and reuses seqs —
//     this is what catches cluster.Config.BreakRecovery even when the
//     lost record was a read.
//  4. Bit-identity: cluster.Verify re-executes every segment from its
//     durable baseline and demands journaled outcomes reproduce
//     exactly (internal/cluster/verify.go).
//  5. Read-back: after the chaos settles, the last acknowledged write
//     of every fault-free block must read back bit-identically — lost
//     durable writes surface here as stale plaintext.

// ClusterConfig shapes one cluster chaos replay.
type ClusterConfig struct {
	Nodes      int    // cluster nodes (default 2)
	Submitters int    // racing submitter goroutines (default 4)
	Shards     int    // per-node pool shards (default 2)
	QueueDepth int    // per-shard queue bound (default 64)
	BatchMax   int    // per-lock-acquisition batch cap (default 8)
	Variant    string // engine variant (default aes128)
	// Chaos kills KillNode once KillAfter ops have been submitted and
	// restarts it Downtime later, mid-traffic.
	Chaos     bool
	KillNode  int           // node to kill (default 1)
	KillAfter int           // submission count that triggers the kill (default len/3)
	Downtime  time.Duration // dark interval before restart (default 2ms)
	// BreakRecovery plumbs the teeth knob through: restarts recover
	// from a journal whose newest record was dropped, and the harness
	// MUST flag the run (self-test of the oracle).
	BreakRecovery bool
	// Flight, when non-nil, is attached to the cluster: kills,
	// restarts, and shard recoveries land in the ring.
	Flight *flight.Ring
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Submitters <= 0 {
		c.Submitters = 4
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.Variant == "" {
		c.Variant = "aes128"
	}
	if c.KillNode <= 0 || c.KillNode >= c.Nodes {
		c.KillNode = c.Nodes - 1
	}
	if c.Downtime <= 0 {
		c.Downtime = 2 * time.Millisecond
	}
	return c
}

// ClusterResult is one program driven through a chaos cluster.
type ClusterResult struct {
	Variant  string
	Ops      int
	Acked    int // ops acknowledged (applied by some engine)
	Rejected int // ops shed with a capacity error during the dark window
	Kills    int
	Restarts int
	// Div is the first oracle violation found (nil on a clean run).
	Div *Divergence
}

// ClusterReplay drives prog through a cluster with racing submitters
// and optional mid-traffic chaos, then runs the full oracle stack.
func ClusterReplay(prog Program, ccfg ClusterConfig) (ClusterResult, error) {
	ccfg = ccfg.withDefaults()
	v, err := VariantByName(ccfg.Variant)
	if err != nil {
		return ClusterResult{}, err
	}
	if err := checkReplayable(prog); err != nil {
		return ClusterResult{}, err
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:           ccfg.Nodes,
		MaxDegradedFrac: -1, // per-address failure, not cluster-wide 429s: the oracle wants the hole visible
		BreakRecovery:   ccfg.BreakRecovery,
		Flight:          ccfg.Flight,
		Node: mcpool.Config{
			Shards:     ccfg.Shards,
			QueueDepth: ccfg.QueueDepth,
			BatchMax:   ccfg.BatchMax,
			Persist:    true,
			Engine:     v.Options(false),
		},
	})
	if err != nil {
		return ClusterResult{}, err
	}
	defer cl.Close()
	res := ClusterResult{Variant: v.Name, Ops: len(prog.Ops)}

	// Fan out: submitter g owns every block ≡ g (mod G), preserving
	// per-block program order. acked/rejected are indexed by op and
	// single-writer (one goroutine per block), so no locking.
	acked := make([]bool, len(prog.Ops))
	rejected := make([]bool, len(prog.Ops))
	reqs := poolRequests(prog, v.VMs)
	var submitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < ccfg.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, op := range prog.Ops {
				if int(op.Block)%ccfg.Submitters != g {
					continue
				}
				resp := cl.SubmitWait(reqs[i])
				submitted.Add(1)
				if errors.Is(resp.Err, cluster.ErrNodeDown) || errors.Is(resp.Err, cluster.ErrOverloaded) || errors.Is(resp.Err, cluster.ErrDraining) {
					rejected[i] = true // shed in the dark window, never applied
					continue
				}
				// Engine-level errors (a DUE under injected faults) are
				// applied, journaled responses — the verifier owns them.
				acked[i] = true
			}
		}(g)
	}

	chaosErr := make(chan error, 1)
	if ccfg.Chaos {
		killAfter := ccfg.KillAfter
		if killAfter <= 0 {
			killAfter = len(prog.Ops) / 3
		}
		go func() {
			for submitted.Load() < int64(killAfter) {
				time.Sleep(100 * time.Microsecond)
			}
			if err := cl.Kill(ccfg.KillNode); err != nil {
				chaosErr <- err
				return
			}
			res.Kills++
			time.Sleep(ccfg.Downtime)
			if _, err := cl.Restart(ccfg.KillNode); err != nil {
				chaosErr <- err
				return
			}
			res.Restarts++
			chaosErr <- nil
		}()
	} else {
		chaosErr <- nil
	}
	wg.Wait()
	if err := <-chaosErr; err != nil {
		return res, err
	}
	for _, ok := range acked {
		if ok {
			res.Acked++
		}
	}
	for _, ok := range rejected {
		if ok {
			res.Rejected++
		}
	}

	// Read-back oracle before the drain fence: the last acknowledged
	// write of every fault-free block must survive the chaos.
	res.Div = clusterReadBack(cl, prog, acked)
	cl.Drain()
	if res.Div == nil {
		res.Div = clusterHistoryCheck(cl, ccfg, prog, acked, rejected)
	}
	if res.Div == nil {
		ms, err := cl.Verify()
		if err != nil {
			return res, err
		}
		if len(ms) > 0 {
			res.Div = div("cluster-verify", "%d bit-identity mismatches, first: %s", len(ms), ms[0])
		}
	}
	return res, nil
}

// clusterReadBack reads every block whose last acknowledged op
// history is fault-free and compares against the last acknowledged
// write's payload.
func clusterReadBack(cl *cluster.Cluster, prog Program, acked []bool) *Divergence {
	lastWrite := map[uint32]int{}
	faulted := map[uint32]bool{}
	for i, op := range prog.Ops {
		if !acked[i] {
			continue
		}
		switch op.Kind {
		case OpWrite:
			lastWrite[op.Block] = i
		case OpFault:
			faulted[op.Block] = true
		}
	}
	for block, i := range lastWrite {
		if faulted[block] {
			continue
		}
		resp := cl.Read(uint64(block) * 64)
		if resp.Err != nil {
			d := div("cluster-readback-error", "block %#x: read after chaos failed: %v", uint64(block)*64, resp.Err)
			d.OpIndex = i
			return d
		}
		if want := prog.Ops[i].Payload(); resp.Plain != want {
			d := div("cluster-stale-read", "block %#x: read after chaos returned stale data (acknowledged write lost)", uint64(block)*64)
			d.OpIndex = i
			return d
		}
	}
	return nil
}

// clusterHistoryCheck walks every node's segment history enforcing
// oracle layers 1–3: exactly-once tagged coverage, per-block program
// order, and per-shard seq continuity across restarts. A segment's
// journal opens with the baseline records it was recovered from;
// only the records after them are the segment's own.
func clusterHistoryCheck(cl *cluster.Cluster, ccfg ClusterConfig, prog Program, acked, rejected []bool) *Divergence {
	covered := make([]bool, len(prog.Ops))
	lastTag := map[uint32]int{} // block → last tag seen in its stream
	for node := 0; node < cl.Nodes(); node++ {
		for sh := 0; sh < ccfg.Shards; sh++ {
			var lastSeq uint64
			for segIdx, seg := range cl.History(node) {
				if sh >= len(seg.Plogs) {
					continue
				}
				entries, _, err := mcpool.DecodeJournal(seg.Plogs[sh])
				if err != nil && err != mcpool.ErrTorn {
					return div("cluster-journal-corrupt", "node %d shard %d seg %d: %v", node, sh, segIdx, err)
				}
				if seg.Baseline != nil {
					baseline, _, _ := mcpool.DecodeJournal(seg.Baseline[sh])
					entries = entries[min(len(baseline), len(entries)):]
				}
				for _, entry := range entries {
					if entry.Seq <= lastSeq {
						return div("cluster-seq-reuse",
							"node %d shard %d seg %d: seq %d after %d — recovery lost durable entries and reused sequence numbers",
							node, sh, segIdx, entry.Seq, lastSeq)
					}
					lastSeq = entry.Seq
					if !entry.HasTag {
						continue // untagged read-back traffic
					}
					i := int(entry.Tag)
					if i < 0 || i >= len(prog.Ops) {
						return div("cluster-journal-tag", "node %d shard %d seq %d: unmappable tag %d", node, sh, entry.Seq, entry.Tag)
					}
					if covered[i] {
						d := div("cluster-journal-duplicate", "op applied twice (node %d shard %d seq %d)", node, sh, entry.Seq)
						d.OpIndex = i
						return d
					}
					covered[i] = true
					block := uint32(entry.Addr / cipher.BlockSize)
					if last, ok := lastTag[block]; ok && i < last {
						d := div("cluster-order", "block %#x: op %d journaled after op %d — program order lost across the restart",
							entry.Addr, i, last)
						d.OpIndex = i
						return d
					}
					lastTag[block] = i
				}
			}
		}
	}
	for i := range prog.Ops {
		switch {
		case acked[i] && !covered[i]:
			d := div("cluster-journal-gap", "acknowledged op never appeared in any segment journal")
			d.OpIndex = i
			return d
		case rejected[i] && covered[i]:
			d := div("cluster-ghost-op", "rejected op appeared in a segment journal anyway")
			d.OpIndex = i
			return d
		}
	}
	return nil
}

// ClusterKind is the cluster chaos campaign: every program races
// through a multi-node cluster shaped by ccfg, whose Variant is the
// default variant list. Like the concurrent kind, its failures depend
// on a goroutine schedule and carry their seed only.
func ClusterKind(ccfg ClusterConfig) Kind {
	return Kind{
		Name: "cluster",
		Counters: []Counter{{"acked", "acked"}, {"rejected", "shed in dark windows"},
			{"kills", "kills"}, {"restarts", "restarts"}},
		Gen:      ConcurrentGenConfig(),
		Variants: []string{ccfg.withDefaults().Variant},
		Run: func(seed int64, variant string, gen GenConfig, eccOff bool) (Outcome, error) {
			if eccOff {
				return Outcome{}, errors.New("check: cluster campaigns run with correction on")
			}
			cfg := ccfg
			cfg.Variant = variant
			res, err := ClusterReplay(Generate(seed, gen), cfg)
			return Outcome{Ops: res.Ops, Div: res.Div, Counts: map[string]uint64{
				"acked": uint64(res.Acked), "rejected": uint64(res.Rejected),
				"kills": uint64(res.Kills), "restarts": uint64(res.Restarts)}}, err
		},
	}
}
