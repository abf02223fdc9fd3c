package check

import (
	"fmt"
	"sync"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/fault"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

// This file is the concurrent differential mode: the same generated
// programs the serial harness replays, but driven through the
// mcpool sharded engine by racing submitter goroutines, then checked
// by replaying each shard's applied-op journal through a fresh serial
// engine + oracle. The journal pins the exact interleaving the pool
// chose, so the serialized replay must match it bit for bit —
// plaintexts, ReadInfo, applied modes, and the shard engine's final
// EngineStats. Run under -race this doubles as a data-race probe of
// the whole submit/batch/apply path.
//
// Ops are partitioned by block across submitters (block ≡ g mod G),
// so each block's program order survives any thread interleaving —
// the same single-writer-per-address discipline a real MC's
// per-bank queues enforce. Cross-block order is genuinely racy; the
// oracle's invariants are per-block, so every legal interleaving must
// still check clean. In particular the §IV-C saturation handoff and
// the split-counter RMW window (ctrblock.SplitBlock.Increment's
// contract) are replayed under whatever interleaving the race chose.

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
	// AdaptiveWatermark turns on the pool's measurement-driven
	// watermark controller for the replay, with a small AdaptEvery so
	// adaptation races the submitters. Replay programs carry explicit
	// modes only, so no matter where the watermark moves, every
	// journal entry must stay bit-identical — this is the proof that
	// adaptation moves only the Auto degradation knee, never the
	// ciphertext.
	AdaptiveWatermark bool
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
	// WatermarkMoves counts the adaptive controller's watermark moves
	// during the replay (0 unless AdaptiveWatermark): proof in the
	// passing case that adaptation actually raced the submitters.
	WatermarkMoves uint64
}

// ConcurrentReplay drives prog through a sharded mcpool with racing
// submitters, then proves the concurrent execution equivalent to a
// serial one: each shard's journal is replayed on a fresh engine with
// the oracle in lockstep, and every journaled response — plaintext,
// ReadInfo, applied mode, error — must match the serial replay
// exactly, as must the shard's final EngineStats.
func ConcurrentReplay(prog Program, ccfg ConcurrentConfig) (ConcurrentResult, error) {
	ccfg = ccfg.withDefaults()
	v, err := VariantByName(ccfg.Variant)
	if err != nil {
		return ConcurrentResult{}, err
	}
	for i, op := range prog.Ops {
		if op.Kind == OpFault && op.Stuck {
			return ConcurrentResult{}, fmt.Errorf("check: op %d: stuck-at faults are not replayable concurrently", i)
		}
		if op.Kind == OpFlush {
			return ConcurrentResult{}, fmt.Errorf("check: op %d: NVM flush ops are not replayable concurrently", i)
		}
	}
	pcfg := mcpool.Config{
		Shards:      ccfg.Shards,
		QueueDepth:  ccfg.QueueDepth,
		BatchMax:    ccfg.BatchMax,
		Watermark:   -1, // explicit modes only: no load-dependent degradation
		Journal:     true,
		Attribution: ccfg.Attribution,
		Flight:      ccfg.Flight,
		Engine:      v.Options(ccfg.ECCOff),
	}
	if ccfg.AdaptiveWatermark {
		// Adapt as often as the pool allows so watermark moves race
		// the submitters; the replay's explicit modes must make every
		// move invisible in the journals.
		pcfg.AdaptiveWatermark = true
		pcfg.AdaptEvery = 2
	}
	pool, err := mcpool.New(pcfg)
	if err != nil {
		return ConcurrentResult{}, err
	}
	res := ConcurrentResult{Variant: v.Name, Ops: len(prog.Ops)}

	// Fan the program out: submitter g owns every block ≡ g (mod G)
	// and submits its ops in program order, pipelined.
	var wg sync.WaitGroup
	subErrs := make([]error, ccfg.Submitters)
	for g := 0; g < ccfg.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var futs []*mcpool.Future
			for i, op := range prog.Ops {
				if int(op.Block)%ccfg.Submitters != g {
					continue
				}
				req := mcpool.Request{Addr: uint64(op.Block) * 64, Tag: i}
				switch op.Kind {
				case OpWrite:
					req.Kind = mcpool.OpWrite
					req.VM = int(op.VM) % v.VMs
					req.Mode = op.Mode
					req.Data = op.Payload()
				case OpRead:
					req.Kind = mcpool.OpRead
				case OpFault:
					req.Kind = mcpool.OpFault
					req.Chip = int(op.Chip)
					req.Pattern = op.Pattern
				}
				fut, err := pool.Submit(req)
				if err != nil {
					subErrs[g] = err
					return
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				fut.Wait()
			}
		}(g)
	}
	wg.Wait()
	pool.Flush()
	for _, err := range subErrs {
		if err != nil {
			pool.Close()
			return res, err
		}
	}

	// Serialized oracle replay, shard by shard, in the exact order the
	// pool applied the ops.
	covered := make([]bool, len(prog.Ops))
	for s := 0; s < pool.NumShards() && res.Div == nil; s++ {
		journal := pool.JournalOf(s)
		c, err := newCheckerFor(v, ccfg.ECCOff)
		if err != nil {
			pool.Close()
			return res, err
		}
		for _, entry := range journal {
			i, ok := entry.Req.Tag.(int)
			if !ok || i < 0 || i >= len(prog.Ops) {
				res.Div = div("journal-tag", "shard %d seq %d: unmappable tag %v", s, entry.Seq, entry.Req.Tag)
				break
			}
			if covered[i] {
				res.Div = div("journal-duplicate", "op applied twice (shard %d seq %d)", s, entry.Seq)
				res.Div.OpIndex = i
				break
			}
			covered[i] = true
			op := prog.Ops[i]
			var d *Divergence
			switch op.Kind {
			case OpWrite:
				d = c.write(op)
				if d == nil {
					if entry.Resp.Err != nil {
						d = div("concurrent-write-error", "pool write failed where serial replay succeeded: %v", entry.Resp.Err)
					} else {
						applied := op.Mode
						if c.e.IsPermanentCounterless(uint64(op.Block) * 64) {
							applied = epoch.Counterless
						}
						if entry.Resp.Mode != applied {
							d = div("concurrent-mode-mismatch",
								"pool stored block %#x in %v, serial replay of the same order stored %v",
								uint64(op.Block)*64, entry.Resp.Mode, applied)
						}
					}
				}
			case OpRead:
				var out ReadOutcome
				out, d = c.read(op)
				if d == nil {
					switch {
					case out.OK != (entry.Resp.Err == nil):
						d = div("concurrent-read-status", "pool read ok=%v, serial replay ok=%v (pool err: %v)",
							entry.Resp.Err == nil, out.OK, entry.Resp.Err)
					case out.Plain != entry.Resp.Plain:
						d = div("concurrent-plaintext", "pool plaintext differs from serial replay at block %#x", uint64(op.Block)*64)
					case out.Info != entry.Resp.Info:
						d = div("concurrent-readinfo", "pool ReadInfo %+v, serial replay %+v", entry.Resp.Info, out.Info)
					}
				}
			case OpFault:
				wantErr := !c.oracle.block(op.Block).written
				if (entry.Resp.Err != nil) != wantErr {
					d = div("concurrent-fault-status", "pool fault err=%v, oracle written=%v", entry.Resp.Err, !wantErr)
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
			st := c.e.Stats()
			res.Stats.Reads += st.Reads
			res.Stats.Writes += st.Writes
			res.Stats.CounterModeWrites += st.CounterModeWrites
			res.Stats.CounterlessWrites += st.CounterlessWrites
			res.Stats.MemoHits += st.MemoHits
			res.Stats.MemoMisses += st.MemoMisses
			res.Stats.Corrections += st.Corrections
			res.Stats.EntropyResolved += st.EntropyResolved
			res.Stats.DUEs += st.DUEs
			res.Stats.MACFailures += st.MACFailures
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
				if t, ok := entry.Req.Tag.(int); ok {
					tag = int64(t)
				}
				ccfg.Flight.Record(flight.KindJournal, int32(s), entry.Req.Addr, tag, int64(entry.Seq))
			}
		}
	}
	res.WatermarkMoves = pool.WatermarkMoves()
	pool.Close()
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
