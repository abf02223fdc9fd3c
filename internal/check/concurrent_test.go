package check

import (
	"runtime"
	"testing"

	"counterlight/internal/epoch"
	"counterlight/internal/figures"
	"counterlight/internal/mcpool"
)

// TestConcurrentDifferentialCampaign is the concurrent acceptance
// gate: hundreds of seeded programs race through the sharded pool and
// every shard journal must replay serially with zero divergences —
// plaintexts, ReadInfo, modes, and EngineStats all bit-identical.
// CI runs this under -race, making it a data-race probe of the whole
// Submit/batch/apply path as well.
func TestConcurrentDifferentialCampaign(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 24
	}
	runner := figures.NewRunner(true)
	runner.Workers = runtime.GOMAXPROCS(0)
	spec := CampaignSpec{Seeds: seeds, SeedStart: 1, Variants: []string{"aes128", "multi-vm"}}
	report, err := RunCampaign(spec, ConcurrentKind(ConcurrentConfig{}), runner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Programs != 2*seeds {
		t.Fatalf("ran %d/%d programs", report.Programs, 2*seeds)
	}
	for _, f := range report.Failures {
		t.Errorf("variant %s seed %d: %s", f.Variant, f.Seed, f.Div.String())
	}
	if !report.OK() {
		t.Fatalf("%d/%d runs diverged", len(report.Failures), 2*seeds)
	}
}

// TestConcurrentSaturationInterleaving replays the §IV-C saturation
// handoff — the lost-update window the satellite audit flagged —
// under racing submitters on the tiny-counter-limit variant, and
// demonstrates the run is deterministic when each submitter feeds
// exactly one shard (Submitters == Shards makes block ≡ g (mod G)
// the shard-routing function itself): two runs must produce
// bit-identical journals, and the serialized replay must agree with
// both.
func TestConcurrentSaturationInterleaving(t *testing.T) {
	ccfg := ConcurrentConfig{Submitters: 4, Shards: 4, Variant: "ctr-sat"}
	// Few blocks, write-heavy: counters cross satCounterLimit fast.
	cfg := ConcurrentGenConfig()
	cfg.Ops = 600
	cfg.Blocks = 32
	cfg.Hot = 4
	cfg.FaultRate = 0.01
	prog := Generate(7, cfg)

	var prev []mcpool.Applied
	for run := 0; run < 2; run++ {
		res, err := ConcurrentReplay(prog, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Div != nil {
			t.Fatalf("run %d diverged: %s", run, res.Div.String())
		}
		// Re-drive the pool directly to capture the journals (the
		// replay API keeps its pool internal), same partitioning.
		journal := concurrentJournal(t, prog, ccfg)
		forced := 0
		for _, e := range journal {
			if e.Req.Kind == mcpool.OpWrite && e.Req.Mode == epoch.CounterMode && e.Resp.Mode == epoch.Counterless {
				forced++
			}
		}
		if forced == 0 {
			t.Fatal("no counter-mode write was forced counterless: the saturation handoff was never exercised")
		}
		if run == 0 {
			prev = journal
			continue
		}
		if len(journal) != len(prev) {
			t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(prev), len(journal))
		}
		for i := range journal {
			a, b := prev[i], journal[i]
			if a.Seq != b.Seq || a.Req.Tag != b.Req.Tag || a.Req.Mode != b.Req.Mode ||
				a.Resp.Mode != b.Resp.Mode || a.Resp.Plain != b.Resp.Plain ||
				(a.Resp.Err == nil) != (b.Resp.Err == nil) {
				t.Fatalf("journal entry %d differs across identical runs:\n  %+v\n  %+v", i, a, b)
			}
		}
	}
}

// TestConcurrentReplayAttributionBitIdentical is the acceptance gate
// for latency attribution: the same seeded programs must replay with
// zero divergences with attribution on (the full plaintext / ReadInfo
// / mode / EngineStats differential check against the serial oracle
// replay), and — on the deterministic Submitters == Shards
// partitioning — the applied-op journals with attribution on and off
// must be bit-identical. Spans observe the pipeline; they must not
// steer it.
func TestConcurrentReplayAttributionBitIdentical(t *testing.T) {
	ccfg := ConcurrentConfig{Submitters: 4, Shards: 4, Attribution: true}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := Generate(seed, ConcurrentGenConfig())
		res, err := ConcurrentReplay(prog, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d diverged with attribution on: %s", seed, res.Div.String())
		}
	}

	prog := Generate(3, ConcurrentGenConfig())
	off := concurrentJournal(t, prog, ConcurrentConfig{Submitters: 4, Shards: 4})
	on := concurrentJournal(t, prog, ccfg)
	if len(off) != len(on) {
		t.Fatalf("journal lengths differ: %d off vs %d on", len(off), len(on))
	}
	for i := range off {
		a, b := off[i], on[i]
		if a.Seq != b.Seq || a.Req.Tag != b.Req.Tag || a.Req.Mode != b.Req.Mode ||
			a.Resp.Mode != b.Resp.Mode || a.Resp.Plain != b.Resp.Plain ||
			a.Resp.Info != b.Resp.Info || (a.Resp.Err == nil) != (b.Resp.Err == nil) {
			t.Fatalf("journal entry %d differs with attribution on:\n  off: %+v\n  on:  %+v", i, a, b)
		}
	}
}

// concurrentJournal runs prog through a fresh pool with the same
// partitioning ConcurrentReplay uses and returns the concatenated
// per-shard journals (shard-major order — deterministic when
// Submitters == Shards).
func concurrentJournal(t *testing.T, prog Program, ccfg ConcurrentConfig) []mcpool.Applied {
	t.Helper()
	ccfg = ccfg.withDefaults()
	v, err := VariantByName(ccfg.Variant)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := mcpool.Config{
		Shards:      ccfg.Shards,
		QueueDepth:  ccfg.QueueDepth,
		BatchMax:    ccfg.BatchMax,
		Watermark:   -1,
		Journal:     true,
		Attribution: ccfg.Attribution,
		Flight:      ccfg.Flight,
		Engine:      v.Options(false),
	}
	if ccfg.AdaptiveWatermark {
		pcfg.AdaptiveWatermark = true
		pcfg.AdaptEvery = 2
	}
	pool, err := mcpool.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	done := make(chan error, ccfg.Submitters)
	for g := 0; g < ccfg.Submitters; g++ {
		go func(g int) {
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
					done <- err
					return
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				fut.Wait()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < ccfg.Submitters; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	pool.Flush()
	var journal []mcpool.Applied
	for s := 0; s < pool.NumShards(); s++ {
		journal = append(journal, pool.JournalOf(s)...)
	}
	return journal
}
