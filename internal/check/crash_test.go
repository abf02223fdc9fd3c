package check

import (
	"encoding/base64"
	"reflect"
	"testing"

	"counterlight/internal/epoch"
	"counterlight/internal/figures"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
)

// smallCrashGen keeps the crash self-tests quick: enough ops to cross
// journal appends, data persists, and explicit flushes, small enough to
// shrink in milliseconds.
func smallCrashGen() GenConfig {
	cfg := CrashGenConfig()
	cfg.Ops = 80
	cfg.Blocks = 32
	return cfg
}

// brokenRepro is the directed known-bad input: four counter-mode
// writes, no crash (the step never fires), and the intentional recovery
// bug armed. BreakRecovery drops the newest durable journal entry, so
// recovery loses block 3's counter/metadata while the data region still
// holds its codeword — exactly the class of bug the counter/metadata
// diff exists to catch. Counterless writes would NOT catch this (the
// dropped entry carries nothing the data region lacks), which is why
// the directed program is all counter-mode.
func brokenRepro() Repro {
	prog := Program{Seed: 0, Blocks: 4}
	for i := uint32(0); i < 4; i++ {
		prog.Ops = append(prog.Ops, Op{Kind: OpWrite, Block: i, Mode: epoch.CounterMode, Pay: PayZero})
	}
	return Repro{Variant: "aes128", Program: prog, Crash: true, CrashStep: 1 << 40, BreakRecovery: true}
}

// A crash step past the end of the run means the power never fails:
// the run completes, recovery replays the full journal, and the diff
// must come back clean.
func TestCrashStepBeyondEnd(t *testing.T) {
	r, err := GenerateCrashRepro(7, "aes128", smallCrashGen())
	if err != nil {
		t.Fatal(err)
	}
	r.CrashStep = 1 << 40
	res, err := CrashReplay(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Error("crash point past the end of the run fired")
	}
	if res.Done != res.Ops {
		t.Errorf("applied %d of %d ops without a crash", res.Done, res.Ops)
	}
	if res.Div != nil {
		t.Errorf("crash-free NVM run diverged from the oracle: %v", res.Div)
	}
	// LastTag is the newest journaled (mutating) tag: at least the last
	// write's index, never past the end of the program.
	lastWrite := -1
	for i, op := range r.Program.Ops {
		if op.Kind == OpWrite {
			lastWrite = i
		}
	}
	if res.Report.LastTag < int64(lastWrite) || res.Report.LastTag >= int64(res.Ops) {
		t.Errorf("recovery LastTag %d outside [%d, %d)", res.Report.LastTag, lastWrite, res.Ops)
	}
}

// Every seed must recover exactly, wherever its crash step lands.
func TestCrashReplayCleanAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, variant := range []string{"aes128", "ctr-sat"} {
			r, err := GenerateCrashRepro(seed, variant, smallCrashGen())
			if err != nil {
				t.Fatal(err)
			}
			res, err := CrashReplay(r, nil)
			if err != nil {
				t.Fatalf("seed %d [%s]: %v", seed, variant, err)
			}
			if res.Div != nil {
				t.Errorf("seed %d [%s] crash step %d: recovery diverged: %v\nrepro token: %s",
					seed, variant, r.CrashStep, res.Div, r.Token())
			}
		}
	}
}

// The intentional recovery bug must be caught by the directed repro —
// deterministically, every time.
func TestBreakRecoveryCaught(t *testing.T) {
	res, err := CrashReplay(brokenRepro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Div == nil {
		t.Fatal("BreakRecovery dropped a counter-mode journal entry and nothing noticed — the crash harness has no teeth")
	}
	// The same program with recovery intact is clean.
	ok := brokenRepro()
	ok.BreakRecovery = false
	clean, err := CrashReplay(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Div != nil {
		t.Fatalf("un-broken recovery of the directed program diverged: %v", clean.Div)
	}
}

// Shrink must minimize a diverging repro to something that still
// fails and round-trips through a token.
func TestShrinkCrashMinimizes(t *testing.T) {
	r := brokenRepro()
	// Pad with noise the shrinker should strip: reads and counterless
	// writes contribute nothing to the broken-recovery divergence.
	noisy := cloneProgram(r.Program)
	noisy.Blocks = 8
	var ops []Op
	for i, op := range noisy.Ops {
		ops = append(ops,
			Op{Kind: OpRead, Block: uint32(i)},
			Op{Kind: OpWrite, Block: 4 + uint32(i%4), Mode: epoch.Counterless, Pay: PayRandom, PaySeed: 99},
			op)
	}
	noisy.Ops = ops
	r.Program = noisy

	min := Shrink(r)
	if len(min.Program.Ops) >= len(noisy.Ops) {
		t.Errorf("shrink removed nothing: %d ops in, %d out", len(noisy.Ops), len(min.Program.Ops))
	}
	res, err := CrashReplay(min, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Div == nil {
		t.Fatal("shrunk repro no longer diverges")
	}
	rt, err := ParseToken(min.Token())
	if err != nil {
		t.Fatalf("shrunk token does not parse: %v", err)
	}
	rr, err := CrashReplay(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Div == nil {
		t.Fatal("shrunk token no longer reproduces the divergence")
	}
}

// Crash repro tokens round-trip bit-exactly, flush ops included.
func TestCrashTokenRoundTrip(t *testing.T) {
	prog := Generate(3, smallCrashGen())
	hasFlush := false
	for _, op := range prog.Ops {
		if op.Kind == OpFlush {
			hasFlush = true
		}
	}
	if !hasFlush {
		prog.Ops = append(prog.Ops, Op{Kind: OpFlush})
	}
	for _, r := range []Repro{
		{Variant: "ctr-sat", Program: prog, Crash: true, CrashStep: 12345},
		{Variant: "aes128", ECCOff: true, Program: prog, Crash: true, CrashStep: 1, BreakRecovery: true},
	} {
		rt, err := ParseToken(r.Token())
		if err != nil {
			t.Fatal(err)
		}
		if rt.Variant != r.Variant || rt.ECCOff != r.ECCOff ||
			rt.Crash != r.Crash || rt.CrashStep != r.CrashStep || rt.BreakRecovery != r.BreakRecovery {
			t.Errorf("crash flags did not round-trip: got %+v", rt)
		}
		if rt.Program.Seed != prog.Seed || rt.Program.Blocks != prog.Blocks ||
			!reflect.DeepEqual(rt.Program.Ops, prog.Ops) {
			t.Error("program did not round-trip through a crash token")
		}
	}
}

// Classic (pre-crash) tokens still parse, with every crash field zero,
// and malformed crash flag combinations are rejected.
func TestCrashTokenCompat(t *testing.T) {
	classic := Repro{Variant: "aes128", Program: Generate(5, DefaultGenConfig())}
	rt, err := ParseToken(classic.Token())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Crash || rt.CrashStep != 0 || rt.BreakRecovery {
		t.Errorf("classic token grew crash fields: %+v", rt)
	}

	// Flip flag bits in the raw bytes: break-recovery without crash and
	// unknown flags must both be rejected.
	raw := classic.TokenBytes()
	flagOff := len("clk1") + 1 + len(classic.Variant)
	for _, tc := range []struct {
		flags byte
		name  string
	}{
		{8, "break-recovery without crash"},
		{0x10, "unknown flag bit"},
	} {
		bad := append([]byte(nil), raw...)
		bad[flagOff] = tc.flags
		if _, err := ParseToken(base64.RawURLEncoding.EncodeToString(bad)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// CrashGenConfig programs contain explicit flushes; the classic
// default never does, and FlushRate 0 must not perturb the rng stream
// (classic seeds keep generating identical programs).
func TestCrashGenFlushes(t *testing.T) {
	flushes := 0
	for seed := int64(0); seed < 8; seed++ {
		for _, op := range Generate(seed, CrashGenConfig()).Ops {
			if op.Kind == OpFlush {
				flushes++
			}
		}
		for _, op := range Generate(seed, DefaultGenConfig()).Ops {
			if op.Kind == OpFlush {
				t.Fatal("classic generator produced a flush op")
			}
		}
	}
	if flushes == 0 {
		t.Error("8 crash-config seeds produced no flush ops")
	}
	a := Generate(11, DefaultGenConfig())
	cfg := DefaultGenConfig()
	cfg.FlushRate = 0
	if b := Generate(11, cfg); !reflect.DeepEqual(a, b) {
		t.Error("FlushRate 0 changed the generated program")
	}
}

// The campaign entry point: a pile of seeds, all clean, stats summed.
func TestCrashCampaignSeedsPass(t *testing.T) {
	pool := figures.NewRunner(true)
	reg := obs.NewRegistry()
	kind := CrashKind(false, nil)
	kind.Gen = smallCrashGen()
	report, err := RunCampaign(CampaignSpec{Seeds: 10}, kind, pool, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("crash campaign found %d divergences; first: %+v", len(report.Failures), report.Failures[0])
	}
	if report.Programs != 20 { // 10 seeds × 2 default variants
		t.Errorf("ran %d programs, want 20", report.Programs)
	}
	if report.Counts["crashes"] == 0 {
		t.Error("no crash point fired across the whole campaign")
	}
	if report.Counts["replayed"] == 0 {
		t.Error("no journal entries were replayed across the whole campaign")
	}
}

// With BreakRecovery armed the campaign must catch the bug and shrink
// it to a token the campaign itself re-parsed and saw still diverge —
// the end-to-end teeth check.
func TestCrashCampaignBreakCaught(t *testing.T) {
	pool := figures.NewRunner(true)
	kind := CrashKind(true, nil)
	kind.Gen = smallCrashGen()
	report, err := RunCampaign(CampaignSpec{Seeds: 10, ExpectDivergence: true}, kind, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) == 0 {
		t.Fatal("broken recovery survived a 10-seed campaign — the crash campaign has no teeth")
	}
	if !report.OK() {
		t.Fatal("broken recovery was caught but no failure carries a verified token")
	}
	f := report.Failures[0]
	if !f.Verified {
		t.Errorf("lowest failure's token was not verified: %s", f.Token)
	}
	rt, err := ParseToken(f.Token)
	if err != nil {
		t.Fatalf("failure token does not parse: %v", err)
	}
	if !rt.Crash || !rt.BreakRecovery {
		t.Errorf("failure token lost its crash flags: %+v", rt)
	}
	res, err := CrashReplay(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Div == nil {
		t.Error("campaign failure token does not reproduce")
	}
}

// Satellite: a concurrent divergence must leave the failing shard's
// journal tail in the flight ring ahead of the divergence event, so
// the dump is a self-contained failure report.
func TestConcurrentDivergenceJournalTail(t *testing.T) {
	prog := Program{Seed: 0, Blocks: 1, Ops: []Op{
		{Kind: OpWrite, Block: 0, Mode: epoch.CounterMode, Pay: PayZero},
		{Kind: OpFault, Block: 0, Chip: 3, Pattern: 1},
		{Kind: OpRead, Block: 0},
	}}
	ring := flight.NewRing(64)
	res, err := ConcurrentReplay(prog, ConcurrentConfig{
		Submitters: 1, Shards: 1, ECCOff: true, Flight: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Div == nil {
		t.Fatal("ECC-off single-fault program did not diverge")
	}
	var journals, divs int
	lastJournal, divAt := -1, -1
	for i, ev := range ring.Snapshot() {
		switch ev.Kind {
		case flight.KindJournal:
			journals++
			lastJournal = i
		case flight.KindDivergence:
			divs++
			if divAt < 0 {
				divAt = i
			}
		}
	}
	if journals == 0 {
		t.Error("no journal-tail events in the flight ring after a concurrent divergence")
	}
	if divs == 0 {
		t.Error("no divergence event in the flight ring")
	}
	if lastJournal >= 0 && divAt >= 0 && lastJournal > divAt {
		t.Error("journal tail recorded after the divergence event, want tail first")
	}
}

// NVM flush ops have no concurrent meaning and must be rejected up
// front, not silently dropped.
func TestConcurrentRejectsFlush(t *testing.T) {
	prog := Program{Seed: 0, Blocks: 1, Ops: []Op{{Kind: OpFlush}}}
	if _, err := ConcurrentReplay(prog, ConcurrentConfig{}); err == nil {
		t.Fatal("concurrent replay accepted an NVM flush op")
	}
}

// FuzzCrashPoints drives generated programs through the NVM engine
// with fuzzer-chosen crash steps: recovery must never panic and never
// diverge from the never-crashed oracle.
func FuzzCrashPoints(f *testing.F) {
	f.Add(int64(1), uint64(1))
	f.Add(int64(2), uint64(7))
	f.Add(int64(3), uint64(64))
	f.Add(int64(4), uint64(250))
	f.Add(int64(5), uint64(1<<40))
	f.Fuzz(func(t *testing.T, seed int64, crashStep uint64) {
		cfg := CrashGenConfig()
		cfg.Ops = 60
		cfg.Blocks = 32
		r := Repro{
			Variant: "aes128",
			Program: Generate(seed, cfg),
			Crash:   true,
		}
		if crashStep > 0 {
			r.CrashStep = crashStep
		} else {
			r.Crash = false
		}
		res, err := CrashReplay(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d crash step %d: recovery diverged: %v\nrepro token: %s",
				seed, crashStep, res.Div, r.Token())
		}
	})
}
