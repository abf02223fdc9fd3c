package check

import (
	"bytes"
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
// byte-identical journals, and the serialized replay must agree with
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

	var prev [][]byte
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
		journals := concurrentJournal(t, prog, ccfg)
		forced := 0
		for _, raw := range journals {
			entries, _, err := mcpool.DecodeJournal(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Kind == mcpool.OpWrite && prog.Ops[e.Tag].Mode == epoch.CounterMode && e.Mode == epoch.Counterless {
					forced++
				}
			}
		}
		if forced == 0 {
			t.Fatal("no counter-mode write was forced counterless: the saturation handoff was never exercised")
		}
		if run == 0 {
			prev = journals
			continue
		}
		for s := range journals {
			if !bytes.Equal(journals[s], prev[s]) {
				t.Fatalf("shard %d journal bytes differ across identical runs (%d vs %d bytes)", s, len(prev[s]), len(journals[s]))
			}
		}
	}
}

// TestConcurrentReplayAttributionBitIdentical is the acceptance gate
// for latency attribution: the same seeded programs must replay with
// zero divergences with attribution on (the full plaintext / ReadInfo
// / mode / EngineStats differential check against the serial oracle
// replay), and — on the deterministic Submitters == Shards
// partitioning — the persisted journals with attribution on and off
// must be byte-identical. Spans observe the pipeline; they must not
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
	for s := range off {
		if len(off[s]) == 0 {
			t.Fatalf("shard %d journaled nothing", s)
		}
		if !bytes.Equal(off[s], on[s]) {
			t.Fatalf("shard %d journal bytes differ with attribution on (%d off vs %d on)", s, len(off[s]), len(on[s]))
		}
	}
}

// concurrentJournal runs prog through a fresh pool the way
// ConcurrentReplay does and returns each shard's persisted journal
// bytes — deterministic when Submitters == Shards. The journal's
// response digests and error bits cover every response, so equal
// bytes mean equal responses too.
func concurrentJournal(t *testing.T, prog Program, ccfg ConcurrentConfig) [][]byte {
	t.Helper()
	ccfg = ccfg.withDefaults()
	v, err := VariantByName(ccfg.Variant)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := mcpool.New(ccfg.poolConfig(v))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := mcpool.RunPartitioned(pool, poolRequests(prog, v.VMs), ccfg.Submitters); err != nil {
		t.Fatal(err)
	}
	journals := make([][]byte, pool.NumShards())
	for s := range journals {
		journals[s] = pool.PersistedJournal(s)
	}
	return journals
}
