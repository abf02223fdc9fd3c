package check

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"counterlight/internal/epoch"
	"counterlight/internal/figures"
)

// pool returns a parallel runner for tests (the harness shares the
// figure sweeps' worker pool).
func pool(workers int) *figures.Runner {
	r := figures.NewRunner(true)
	r.Workers = workers
	return r
}

// TestDifferentialCleanSeeds is the harness's main self-check: across
// a spread of seeds, every variant must agree with the oracle on every
// operation and with its group peers on every read.
func TestDifferentialCleanSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		prog := Generate(seed, DefaultGenConfig())
		results, div, err := Differential(prog, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("seed %d: divergence: %v", seed, div)
		}
		for _, rr := range results {
			if rr.Stats.Writes == 0 || rr.Stats.Reads == 0 {
				t.Fatalf("seed %d: variant %s did no work: %+v", seed, rr.Variant, rr.Stats)
			}
		}
	}
}

// TestCounterSaturationSweep drives one block past the ctr-sat
// variant's tiny counter limit: the oracle must accept the §IV-C
// permanent switch to counterless mode (and reject any counter motion
// afterwards), while the default-limit variant keeps counting.
func TestCounterSaturationSweep(t *testing.T) {
	prog := Program{Seed: 42, Blocks: 1}
	for i := 0; i < satCounterLimit+8; i++ {
		prog.Ops = append(prog.Ops,
			Op{Kind: OpWrite, Block: 0, Mode: epoch.CounterMode, Pay: PayLow, PaySeed: uint32(i)},
			Op{Kind: OpRead, Block: 0},
		)
	}
	sat, err := Replay(Repro{Variant: "ctr-sat", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Div != nil {
		t.Fatalf("ctr-sat saturation run diverged: %v", sat.Div)
	}
	last := sat.Reads[len(sat.Reads)-1]
	if last.Mode != epoch.Counterless {
		t.Fatalf("ctr-sat block should end permanently counterless, read mode %v", last.Mode)
	}
	base, err := Replay(Repro{Variant: "aes128", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if base.Div != nil {
		t.Fatalf("default-limit run diverged: %v", base.Div)
	}
	if last := base.Reads[len(base.Reads)-1]; last.Mode != epoch.CounterMode {
		t.Fatalf("default-limit block should stay in counter mode, read mode %v", last.Mode)
	}
}

// TestKnownBadMetadataFlip is the acceptance check for the harness's
// teeth: flip one metadata (parity-chip) bit with correction disabled
// and the oracle must diverge — the chipkill contract says single-chip
// faults always correct, and the mutated engine can't.
func TestKnownBadMetadataFlip(t *testing.T) {
	prog := Program{Seed: 0, Blocks: 1, Ops: []Op{
		{Kind: OpWrite, Block: 0, Mode: epoch.CounterMode, Pay: PayText, PaySeed: 9},
		{Kind: OpFault, Block: 0, Chip: 9, Pattern: 1}, // one metadata bit
		{Kind: OpRead, Block: 0},
	}}
	// Healthy engine: corrected, no divergence.
	good, err := Replay(Repro{Variant: "aes128", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if good.Div != nil {
		t.Fatalf("healthy engine diverged on a single metadata bit flip: %v", good.Div)
	}
	// Correction disabled: the same program must diverge...
	bad, err := Replay(Repro{Variant: "aes128", ECCOff: true, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Div == nil {
		t.Fatal("DisableCorrection engine did not diverge — the harness has no teeth")
	}
	if bad.Div.Kind != "uncorrected-single-fault" {
		t.Fatalf("wrong divergence kind %q: %v", bad.Div.Kind, bad.Div)
	}
	// ...and minimize to a token that replays the same failure.
	min := Shrink(Repro{Variant: "aes128", ECCOff: true, Program: prog})
	if n := len(min.Program.Ops); n != 3 {
		t.Fatalf("minimal repro should be write+fault+read, got %d ops", n)
	}
	rt, err := ParseToken(min.Token())
	if err != nil {
		t.Fatalf("minimized token does not parse: %v", err)
	}
	rr, err := Replay(rt)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Div == nil {
		t.Fatal("minimized token no longer reproduces the divergence")
	}
}

// TestTokenRoundTrip pins the repro-token encoding: every generated
// program must survive encode → parse bit-exactly.
func TestTokenRoundTrip(t *testing.T) {
	for _, seed := range []int64{0, 1, 99} {
		prog := Generate(seed, DefaultGenConfig())
		for _, eccOff := range []bool{false, true} {
			r := Repro{Variant: "multi-vm", ECCOff: eccOff, Program: prog}
			rt, err := ParseToken(r.Token())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rt.Variant != r.Variant || rt.ECCOff != r.ECCOff ||
				rt.Program.Seed != prog.Seed || rt.Program.Blocks != prog.Blocks ||
				len(rt.Program.Ops) != len(prog.Ops) {
				t.Fatalf("seed %d: token header did not round-trip: %+v", seed, rt)
			}
			for i := range prog.Ops {
				if rt.Program.Ops[i] != prog.Ops[i] {
					t.Fatalf("seed %d: op %d did not round-trip: %+v vs %+v",
						seed, i, rt.Program.Ops[i], prog.Ops[i])
				}
			}
		}
	}
}

// TestTokenRejectsGarbage pins the decoder's validation: truncation,
// bad magic, out-of-range or over-wide fields, and trailing bytes are
// errors, never panics, out-of-range programs, or a program other than
// the one the bytes encode.
func TestTokenRejectsGarbage(t *testing.T) {
	good := Repro{Variant: "aes128", Program: Generate(5, DefaultGenConfig())}
	raw := good.TokenBytes()
	if _, err := parseTokenBytes(raw[:0]); err == nil {
		t.Error("empty token accepted")
	}
	if _, err := parseTokenBytes([]byte("nope")); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{5, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := parseTokenBytes(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := ParseToken("!!!not-base64!!!"); err == nil {
		t.Error("non-base64 token accepted")
	}

	// An accepted token must name exactly the program its bytes
	// encode: trailing bytes, and 32-bit op fields carrying wider
	// uvarints, are errors rather than silently dropped or truncated
	// (block 2^32+3 must not replay as block 3). oneOp builds a one-op
	// token (variant aes128, no flags, seed 0, 8 blocks) the way
	// Repro.TokenBytes frames it.
	oneOp := func(kind OpKind, block uint64, tail ...byte) []byte {
		buf := append([]byte(tokenMagic), 6)
		buf = append(buf, "aes128"...)
		buf = append(buf, 0)               // flags
		buf = binary.AppendUvarint(buf, 0) // seed
		buf = binary.AppendUvarint(buf, 8) // blocks
		buf = binary.AppendUvarint(buf, 1) // ops
		buf = append(buf, byte(kind))
		buf = binary.AppendUvarint(buf, block)
		return append(buf, tail...)
	}
	write := func(paySeed uint64) []byte {
		tail := binary.AppendUvarint([]byte{0, byte(epoch.CounterMode), byte(PayText)}, paySeed)
		return oneOp(OpWrite, 3, tail...)
	}
	// In range, the hand-built frames are canonical tokens.
	for _, frame := range [][]byte{oneOp(OpRead, 7), write(math.MaxUint32)} {
		r, err := parseTokenBytes(frame)
		if err != nil {
			t.Fatalf("in-range token rejected: %v", err)
		}
		if !bytes.Equal(r.TokenBytes(), frame) {
			t.Fatalf("in-range token re-encodes as %q, want %q", r.TokenBytes(), frame)
		}
	}
	crash := Repro{Variant: "aes128", Crash: true, CrashStep: 9, Program: Generate(6, DefaultGenConfig())}.TokenBytes()
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"trailing zero byte", append(oneOp(OpRead, 3), 0)},
		{"trailing op frame", append(oneOp(OpRead, 3), byte(OpRead), 3)},
		{"generated program plus a byte", append(raw, 0xff)},
		{"crash token plus a byte", append(crash, 1)},
		{"block 2^32+3", oneOp(OpRead, 1<<32+3)},
		{"block 2^64-1", oneOp(OpRead, math.MaxUint64)},
		{"payload seed 2^32", write(1 << 32)},
		{"payload seed 2^32+5", write(1<<32 + 5)},
	} {
		if r, err := parseTokenBytes(tc.raw); err == nil {
			t.Errorf("%s: accepted as a %d-op program", tc.name, len(r.Program.Ops))
		}
	}
}

// TestCampaignDefaultClean runs a small default campaign end to end
// through the worker pool: zero divergences expected.
func TestCampaignDefaultClean(t *testing.T) {
	spec := DefaultCampaign(6, 100)
	if testing.Short() {
		spec.Seeds = 2
	}
	report, err := RunCampaign(spec, ClassicKind(), pool(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("default campaign failed: %+v", report.Failures)
	}
	if report.Programs != spec.Seeds {
		t.Fatalf("ran %d of %d programs", report.Programs, spec.Seeds)
	}
}

// TestCampaignKnownBad loads the checked-in known-bad campaign (ECC
// disabled, parity-region single-bit faults) and requires it to
// diverge, minimize, and verify — the CI self-test of the harness.
func TestCampaignKnownBad(t *testing.T) {
	spec, err := LoadCampaign("testdata/knownbad.json")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.ExpectDivergence || !spec.ECCOff {
		t.Fatalf("knownbad.json lost its point: %+v", spec)
	}
	if testing.Short() {
		spec.Seeds = 2
	}
	report, err := RunCampaign(spec, ClassicKind(), pool(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("known-bad campaign produced no verified minimized divergence: %d failures %+v",
			len(report.Failures), report.Failures)
	}
	for _, f := range report.Failures {
		if f.Token != "" && !f.Verified {
			t.Errorf("seed %d: minimized token failed to re-diverge: %s", f.Seed, f.Token)
		}
	}
}

// TestSchemeSweep cross-checks every registered timing scheme's Result
// invariants and counterlight's run-to-run determinism.
func TestSchemeSweep(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	issues, err := SchemeSweep(seeds, pool(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, iss := range issues {
		t.Errorf("%v", iss)
	}
}
