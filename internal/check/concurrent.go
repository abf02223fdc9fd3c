package check

import (
	"fmt"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/fault"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

// This file is the concurrent differential mode: the same generated
// programs the serial harness replays, but driven through the
// mcpool sharded engine by racing submitter goroutines, then checked
// by replaying each shard's ops through a fresh serial engine + oracle
// in the order its journal records. The journal pins the exact
// interleaving the pool chose, so the serialized replay must match the
// submitters' responses bit for bit — plaintexts, ReadInfo, applied
// modes, errors — and the shard engine's final EngineStats. Run under
// -race this doubles as a data-race probe of the whole
// submit/batch/apply path.
//
// Ops are partitioned by block across submitters (block ≡ g mod G),
// so each block's program order survives any thread interleaving —
// the same single-writer-per-address discipline a real MC's
// per-bank queues enforce. Cross-block order is genuinely racy; the
// oracle's invariants are per-block, so every legal interleaving must
// still check clean. In particular the §IV-C saturation handoff is
// replayed under whatever interleaving the race chose. A counter
// block's data blocks span every shard, but no counter state is shared:
// each shard engine has its own private ctrblock.Store, touched only by
// that shard's worker under the shard lock.

// ConcurrentConfig shapes one concurrent differential replay.
type ConcurrentConfig struct {
	Submitters int    // racing submitter goroutines (default 4)
	Shards     int    // pool shards (default 4)
	QueueDepth int    // per-shard queue bound (default 64)
	BatchMax   int    // per-lock-acquisition batch cap (default 8)
	Variant    string // engine variant (default aes128)
	// Attribution turns on the pool's per-op latency spans for the
	// replay. The differential check is unchanged: attribution must
	// leave every journal entry and engine counter bit-identical, so
	// campaigns run with it on prove the observer is an observer.
	Attribution bool
	// ECCOff disables trial-and-error correction in both the pool's
	// shard engines and the serialized replay engines, so injected
	// faults surface as raw DUEs instead of being healed — the cheap
	// way to make a known-bad concurrent program for self-tests.
	ECCOff bool
	// Flight, when non-nil, is attached to the replay pool; on any
	// divergence the harness records the failing shard's journal tail
	// (KindJournal, newest last) followed by a KindDivergence event,
	// so the ring holds the moments leading up to the failure and the
	// exact op order that produced it.
	Flight *flight.Ring
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.Submitters <= 0 {
		c.Submitters = 4
	}
	if c.Shards <= 0 {
		c.Shards = 4
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
	return c
}

// ConcurrentGenConfig is the generator config for concurrent
// campaigns: the serial defaults minus stuck-at faults, whose pattern
// depends on a point-in-time codeword snapshot no concurrent
// frontend can take atomically with the injection.
func ConcurrentGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Kinds = []fault.Kind{fault.SingleChip, fault.DoubleChip, fault.BitFlip}
	return cfg
}

// ConcurrentResult is one program driven through the pool and
// re-checked serially.
type ConcurrentResult struct {
	Variant string
	Ops     int
	// Stats sums the shard engines' counters after the run.
	Stats core.EngineStats
	// Div is the first disagreement found: pool response vs.
	// serialized replay, oracle violation, or journal coverage gap.
	Div *Divergence
}

// poolConfig is the pool a concurrent replay drives: persisted
// journals on, shaped by c. Its shard epoch monitors run as in any
// pool, racing the submitters; the replay's requests carry explicit
// modes, so no monitor verdict may change a journal entry.
func (c ConcurrentConfig) poolConfig(v Variant) mcpool.Config {
	return mcpool.Config{
		Shards:      c.Shards,
		QueueDepth:  c.QueueDepth,
		BatchMax:    c.BatchMax,
		Persist:     true,
		Attribution: c.Attribution,
		Flight:      c.Flight,
		Engine:      v.Options(c.ECCOff),
	}
}

// poolRequests maps every program op to a pool request, tagged with
// its op index so its journal entry maps back to the program.
func poolRequests(prog Program, vms int) []mcpool.Request {
	reqs := make([]mcpool.Request, len(prog.Ops))
	for i, op := range prog.Ops {
		req := &reqs[i]
		req.Addr, req.Tag = uint64(op.Block)*64, i
		switch op.Kind {
		case OpWrite:
			req.Kind = mcpool.OpWrite
			req.VM = int(op.VM) % vms
			req.Mode = op.Mode
			req.Data = op.Payload()
		case OpRead:
			req.Kind = mcpool.OpRead
		case OpFault:
			req.Kind = mcpool.OpFault
			req.Chip = int(op.Chip)
			req.Pattern = op.Pattern
		}
	}
	return reqs
}

// checkReplayable refuses the ops no concurrent frontend can replay.
func checkReplayable(prog Program) error {
	for i, op := range prog.Ops {
		if op.Kind == OpFault && op.Stuck {
			return fmt.Errorf("check: op %d: stuck-at faults are not replayable concurrently", i)
		}
		if op.Kind == OpFlush {
			return fmt.Errorf("check: op %d: NVM flush ops are not replayable concurrently", i)
		}
	}
	return nil
}

// ConcurrentReplay drives prog through a sharded mcpool with racing
// submitters, then proves the concurrent execution equivalent to a
// serial one: each shard's persisted journal gives the order the pool
// applied its ops in, those ops are replayed in that order on a fresh
// engine with the oracle in lockstep, and every response the
// submitters received — plaintext, ReadInfo, applied mode, error —
// must match the serial replay exactly, as must the shard's final
// EngineStats.
func ConcurrentReplay(prog Program, ccfg ConcurrentConfig) (ConcurrentResult, error) {
	ccfg = ccfg.withDefaults()
	v, err := VariantByName(ccfg.Variant)
	if err != nil {
		return ConcurrentResult{}, err
	}
	if err := checkReplayable(prog); err != nil {
		return ConcurrentResult{}, err
	}
	pool, err := mcpool.New(ccfg.poolConfig(v))
	if err != nil {
		return ConcurrentResult{}, err
	}
	defer pool.Close()
	res := ConcurrentResult{Variant: v.Name, Ops: len(prog.Ops)}
	// Submitter g owns every block ≡ g (mod Submitters) and submits its
	// ops in program order, pipelined.
	resps, err := mcpool.RunPartitioned(pool, poolRequests(prog, v.VMs), ccfg.Submitters)
	if err != nil {
		return res, err
	}

	// Serialized oracle replay, shard by shard, in the exact order the
	// pool applied the ops.
	covered := make([]bool, len(prog.Ops))
	for s := 0; s < pool.NumShards() && res.Div == nil; s++ {
		journal, _, err := mcpool.DecodeJournal(pool.PersistedJournal(s))
		if err != nil {
			return res, fmt.Errorf("check: shard %d journal: %w", s, err)
		}
		c, err := newCheckerFor(v, ccfg.ECCOff)
		if err != nil {
			return res, err
		}
		for _, entry := range journal {
			i := int(entry.Tag)
			if !entry.HasTag || i < 0 || i >= len(prog.Ops) || entry.Addr != uint64(prog.Ops[i].Block)*64 {
				res.Div = div("journal-tag", "shard %d seq %d: unmappable tag %d (present %v) at %#x", s, entry.Seq, entry.Tag, entry.HasTag, entry.Addr)
				break
			}
			if covered[i] {
				res.Div = div("journal-duplicate", "op applied twice (shard %d seq %d)", s, entry.Seq)
				res.Div.OpIndex = i
				break
			}
			covered[i] = true
			op, resp := prog.Ops[i], resps[i]
			var d *Divergence
			switch op.Kind {
			case OpWrite:
				d = c.write(op)
				if d == nil {
					if resp.Err != nil {
						d = div("concurrent-write-error", "pool write failed where serial replay succeeded: %v", resp.Err)
					} else {
						applied := op.Mode
						if c.e.IsPermanentCounterless(uint64(op.Block) * 64) {
							applied = epoch.Counterless
						}
						if resp.Mode != applied {
							d = div("concurrent-mode-mismatch",
								"pool stored block %#x in %v, serial replay of the same order stored %v",
								uint64(op.Block)*64, resp.Mode, applied)
						}
					}
				}
			case OpRead:
				var out ReadOutcome
				out, d = c.read(op)
				if d == nil {
					switch {
					case out.OK != (resp.Err == nil):
						d = div("concurrent-read-status", "pool read ok=%v, serial replay ok=%v (pool err: %v)",
							resp.Err == nil, out.OK, resp.Err)
					case out.Plain != resp.Plain:
						d = div("concurrent-plaintext", "pool plaintext differs from serial replay at block %#x", uint64(op.Block)*64)
					case out.Info != resp.Info:
						d = div("concurrent-readinfo", "pool ReadInfo %+v, serial replay %+v", resp.Info, out.Info)
					}
				}
			case OpFault:
				wantErr := !c.oracle.block(op.Block).written
				if (resp.Err != nil) != wantErr {
					d = div("concurrent-fault-status", "pool fault err=%v, oracle written=%v", resp.Err, !wantErr)
				} else {
					d = c.fault(op)
				}
			}
			if d != nil {
				if d.OpIndex == 0 {
					d.OpIndex = i
				}
				res.Div = d
				break
			}
		}
		if res.Div == nil {
			// The serialized replay consumed the same ops in the same
			// order, so the shard engine's counters must match exactly.
			if pStats, sStats := pool.ShardStats(s), c.e.Stats(); pStats != sStats {
				res.Div = div("concurrent-stats", "shard %d stats %+v, serial replay %+v", s, pStats, sStats)
			}
			res.Stats.Add(c.e.Stats())
		}
		if res.Div != nil {
			// The failing shard's journal tail goes into the ring
			// first, newest last, so the dump that follows the
			// KindDivergence marker is self-contained: it shows the
			// exact op order the pool chose leading into the failure.
			tail := journal
			if len(tail) > 16 {
				tail = tail[len(tail)-16:]
			}
			for _, entry := range tail {
				tag := int64(-1)
				if entry.HasTag {
					tag = entry.Tag
				}
				ccfg.Flight.Record(flight.KindJournal, int32(s), entry.Addr, tag, int64(entry.Seq))
			}
		}
	}
	if res.Div == nil {
		for i, ok := range covered {
			if !ok {
				res.Div = div("journal-gap", "op never appeared in any shard journal")
				res.Div.OpIndex = i
				break
			}
		}
	}
	if res.Div != nil {
		// Annotate the black box: the ring now ends with the failure
		// it should explain.
		ccfg.Flight.Record(flight.KindDivergence, -1, 0, int64(res.Div.OpIndex), 0)
	}
	return res, nil
}

// ConcurrentKind is the concurrent differential campaign: every
// program races through a sharded pool shaped by ccfg, whose Variant
// is the default variant list. A divergence depends on the goroutine
// schedule, which no program token can replay, so failures carry
// their seed only.
func ConcurrentKind(ccfg ConcurrentConfig) Kind {
	return Kind{
		Name:     "concurrent",
		Gen:      ConcurrentGenConfig(),
		Variants: []string{ccfg.withDefaults().Variant},
		Run: func(seed int64, variant string, gen GenConfig, eccOff bool) (Outcome, error) {
			cfg := ccfg
			cfg.Variant, cfg.ECCOff = variant, cfg.ECCOff || eccOff
			res, err := ConcurrentReplay(Generate(seed, gen), cfg)
			return Outcome{Ops: res.Ops, Div: res.Div}, err
		},
	}
}
