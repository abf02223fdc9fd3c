package cluster

// Chaos verification: prove that a cluster's history — including
// every kill/restart — replays bit-identically. Each node's life is a
// sequence of Segments (incarnations); within one segment each shard's
// journal is a total order over that shard's blocks, and the
// incarnation began either empty (gen 0) or from an Entry.Apply redo
// of its durable baseline. Both starting states have EMPTY volatile
// tables (memoization, profiler estimates), so re-executing the
// segment's ops on a fresh engine seeded the same way is fully
// deterministic and must reproduce every journaled outcome bit for bit.
//
// Two engines walk the journal in lockstep: durable redoes each entry
// (Entry.Apply, exactly what recovery does) and replay re-executes it.
// The journal holds no plaintext, so a write's payload is read back
// from durable and must match the entry's Sum. The former proves the
// pool applied what it acknowledged, the latter that the durable log
// captured exactly the state a restart will rebuild. A divergence in
// either direction is a Mismatch.

import (
	"errors"
	"fmt"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
)

// Mismatch is one verification failure, located by node incarnation
// (Seg), shard, and journal seq.
type Mismatch struct {
	Node   int
	Seg    int // segment index; == number of closed segments for the live one
	Shard  int
	Seq    uint64 // journal seq of the diverging op (0 for state diffs)
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("node %d seg %d shard %d seq %d: %s", m.Node, m.Seg, m.Shard, m.Seq, m.Detail)
}

// Verify replays every node's full segment history. Requires the node
// template to run with Persist on.
func (c *Cluster) Verify() ([]Mismatch, error) {
	var all []Mismatch
	for i := range c.nodes {
		ms, err := c.VerifyNode(i)
		if err != nil {
			return all, err
		}
		all = append(all, ms...)
	}
	return all, nil
}

// History returns node i's full segment history: every closed
// segment plus — when the node is live — a snapshot of the current
// incarnation, whose Plogs are each shard's journal bytes as of the
// call: a complete-record prefix of the shard's apply order, even
// under traffic.
func (c *Cluster) History(i int) []Segment {
	n := c.nodes[i]
	n.mu.RLock()
	defer n.mu.RUnlock()
	segs := append([]Segment(nil), n.segs...)
	if n.pool == nil {
		return segs
	}
	live := Segment{Baseline: n.baseline, Plogs: make([][]byte, n.pool.NumShards())}
	for sh := range live.Plogs {
		live.Plogs[sh] = n.pool.PersistedJournal(sh)
	}
	return append(segs, live)
}

// VerifyNode replays node i's closed segments plus — when the node is
// live — its current incarnation. The live segment's final-state diff
// against the live shard engines runs only once the cluster is
// draining (quiesced); under traffic the replay still checks every
// journaled op up to the snapshot History took.
func (c *Cluster) VerifyNode(i int) ([]Mismatch, error) {
	if !c.cfg.Node.Persist {
		return nil, fmt.Errorf("cluster: verification needs Persist in the node config")
	}
	n := c.nodes[i]
	n.mu.RLock()
	nsegs := len(n.segs)
	pool := n.pool
	n.mu.RUnlock()
	segs := c.History(i)

	var ms []Mismatch
	for segIdx, seg := range segs {
		var finalEng func(sh int, fn func(*core.Engine))
		if pool != nil && segIdx == nsegs && c.draining.Load() {
			finalEng = func(sh int, fn func(*core.Engine)) { pool.WithShardEngine(sh, fn) }
		}
		for sh := range seg.Plogs {
			var base []byte
			if seg.Baseline != nil {
				base = seg.Baseline[sh]
			}
			ms = append(ms, c.verifyShard(i, segIdx, sh, base, seg.Plogs[sh], finalEng)...)
		}
	}
	return ms, nil
}

// verifyShard checks one (segment, shard). Both engines start from the
// baseline: replay redoes base, durable the plog's first as many
// records (recovery seeded the plog with them). The segment's own
// records then run in lockstep, each redone on durable and
// re-executed on replay; the end states must agree with each other
// and, when finalEng is set, with the live engine. base is nil for a
// first incarnation.
func (c *Cluster) verifyShard(nodeID, segIdx, sh int, base, plog []byte, finalEng func(int, func(*core.Engine))) []Mismatch {
	mm := func(seq uint64, format string, args ...any) []Mismatch {
		return []Mismatch{{Node: nodeID, Seg: segIdx, Shard: sh, Seq: seq, Detail: fmt.Sprintf(format, args...)}}
	}
	baseline, err := decodeDurable(base)
	if err != nil {
		return mm(0, "baseline: %v", err)
	}
	entries, err := decodeDurable(plog)
	if err != nil {
		return mm(0, "durable log: %v", err)
	}
	if len(entries) < len(baseline) {
		return mm(0, "durable log has %d records, fewer than its %d-record baseline", len(entries), len(baseline))
	}
	replay, err := core.NewEngine(c.cfg.Node.Engine)
	durable, err2 := core.NewEngine(c.cfg.Node.Engine)
	if err = errors.Join(err, err2); err != nil {
		return mm(0, "engines: %v", err)
	}
	for k, e := range baseline {
		if err := e.Apply(replay); err != nil {
			return mm(e.Seq, "baseline redo: %v", err)
		}
		if err := entries[k].Apply(durable); err != nil {
			return mm(entries[k].Seq, "durable redo: %v", err)
		}
	}
	for _, e := range entries[len(baseline):] {
		if err := e.Apply(durable); err != nil {
			return mm(e.Seq, "durable redo: %v", err)
		}
		if d := reexecute(replay, durable, e); d != "" {
			// The shard's state has diverged; later ops would cascade.
			return mm(e.Seq, "%s", d)
		}
	}
	var ms []Mismatch
	if d := core.DiffState(replay, durable); d != "" {
		ms = append(ms, mm(0, "re-executed state vs durable log: %s", d)...)
	}
	if finalEng != nil {
		finalEng(sh, func(liveE *core.Engine) {
			if d := core.DiffState(replay, liveE); d != "" {
				ms = append(ms, mm(0, "re-executed state vs live engine: %s", d)...)
			}
		})
	}
	return ms
}

// decodeDurable decodes a raw durable journal, dropping a torn tail
// exactly as recovery would.
func decodeDurable(raw []byte) ([]mcpool.Entry, error) {
	entries, _, err := mcpool.DecodeJournal(raw)
	if err != nil && err != mcpool.ErrTorn {
		return nil, err
	}
	return entries, nil
}

// reexecute runs one journaled op on replay — durable has already
// redone it — and compares the outcome with the entry: error bit
// always; Sum (plaintext and ReadInfo) for a read; codeword for a
// fault; and for a write, Sum (payload, read back from durable, and
// applied mode), then codeword, counter, permanent-counterless flag
// and mode. Returns "" on bit-identity or a mismatch description.
func reexecute(replay, durable *core.Engine, e mcpool.Entry) string {
	var err error
	switch e.Kind {
	case mcpool.OpRead:
		var resp mcpool.Response
		resp.Plain, resp.Info, err = replay.Read(e.Addr)
		if (err != nil) == e.Err && (!e.HasSum || mcpool.ResponseSum(replay.CounterCipher(), &mcpool.Request{Kind: mcpool.OpRead}, &resp) != e.Sum) {
			return fmt.Sprintf("read %#x: replay plaintext or ReadInfo %+v differs from the journaled response", e.Addr, resp.Info)
		}
	case mcpool.OpWrite:
		req := mcpool.Request{Kind: mcpool.OpWrite}
		if !e.Err {
			if req.Data, _, err = durable.Read(e.Addr); err != nil {
				return fmt.Sprintf("write %#x: journaled codeword does not read back: %v", e.Addr, err)
			}
			if !e.HasSum || mcpool.ResponseSum(replay.CounterCipher(), &req, &mcpool.Response{Mode: e.Mode}) != e.Sum {
				return fmt.Sprintf("write %#x: journaled codeword and mode %v do not match the acknowledged write", e.Addr, e.Mode)
			}
		}
		mode := e.Mode
		if e.PermCL && !replay.IsPermanentCounterless(e.Addr) {
			mode = epoch.CounterMode // this write saturated the counter (§IV-C): it must again
		}
		if err = replay.WriteAs(e.VM, e.Addr, req.Data, mode); err == nil {
			if replay.IsPermanentCounterless(e.Addr) {
				mode = epoch.Counterless
			}
			cw, _ := replay.Snapshot(e.Addr)
			switch {
			case mode != e.Mode:
				return fmt.Sprintf("write %#x: replay stored %v, journal says %v", e.Addr, mode, e.Mode)
			case !e.HasCW || cw != e.CW:
				return fmt.Sprintf("write %#x: replay codeword differs from the journaled one", e.Addr)
			case replay.Counters().Counter(e.Addr) != e.Ctr || replay.IsPermanentCounterless(e.Addr) != e.PermCL:
				return fmt.Sprintf("write %#x: replay counter %d, journal says %d (permanent-counterless %v)",
					e.Addr, replay.Counters().Counter(e.Addr), e.Ctr, e.PermCL)
			}
		}
	case mcpool.OpFault:
		err = replay.InjectFault(e.Addr, e.Chip, e.Pattern)
		if cw, _ := replay.Snapshot(e.Addr); err == nil && (!e.HasCW || cw != e.CW) {
			return fmt.Sprintf("fault %#x: replay codeword differs from the journaled one", e.Addr)
		}
	default:
		return fmt.Sprintf("unknown journaled op kind %d", e.Kind)
	}
	if (err != nil) != e.Err {
		return fmt.Sprintf("%s %#x: replay err=%v, journaled error bit %v",
			[...]string{"read", "write", "fault"}[e.Kind], e.Addr, err, e.Err)
	}
	return ""
}
