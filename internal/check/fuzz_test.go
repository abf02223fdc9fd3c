package check

import (
	"bytes"
	"encoding/base64"
	"reflect"
	"testing"

	"counterlight/internal/epoch"
)

// FuzzEngineOps feeds arbitrary bytes through the repro-token decoder
// and replays whatever parses against the oracle. The decoder is the
// mutation surface: valid tokens explore op sequences the generator's
// distribution never draws (adversarial interleavings, degenerate
// payloads, fault storms), and invalid ones exercise every validation
// branch. Any oracle divergence with correction enabled is a real bug;
// the failure message carries the replayable token.
func FuzzEngineOps(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := DefaultGenConfig()
		cfg.Ops = 64
		f.Add(Repro{Variant: "aes128", Program: Generate(seed, cfg)}.TokenBytes())
	}
	f.Add(Repro{Variant: "ctr-sat", Program: Program{Seed: 0, Blocks: 1, Ops: []Op{
		{Kind: OpWrite, Block: 0, Mode: epoch.CounterMode, Pay: PayLow, PaySeed: 1},
		{Kind: OpFault, Block: 0, Chip: 9, Pattern: 1},
		{Kind: OpRead, Block: 0},
	}}}.TokenBytes())
	f.Add(Repro{Variant: "multi-vm", Program: Program{Seed: 0, Blocks: 2, Ops: []Op{
		{Kind: OpWrite, Block: 1, VM: 2, Mode: epoch.Counterless, Pay: PayRandom, PaySeed: 7},
		{Kind: OpFault, Block: 1, Chip: 8, Stuck: true},
		{Kind: OpRead, Block: 1},
		{Kind: OpRead, Block: 0},
	}}}.TokenBytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseTokenBytes(data)
		if err != nil {
			return // invalid tokens must error, not panic — done here
		}
		// Keep per-exec cost bounded; the parser's own caps are sized
		// for real campaigns, not fuzz throughput.
		if len(r.Program.Ops) > 1024 || r.Program.Blocks > 4096 {
			t.Skip("oversized program")
		}
		// Correction stays ON: with it, the chipkill contract must hold
		// for every decodable program.
		r.ECCOff = false
		rr, err := Replay(r)
		if err != nil {
			return // unknown variant name in the fuzzed bytes
		}
		if rr.Div != nil {
			t.Fatalf("oracle divergence (gen seed %d): %v\nrepro token: %s",
				r.Program.Seed, rr.Div, r.Token())
		}
	})
}

// FuzzReproToken fuzzes the repro-token decoder on its own, without
// replaying: no input may panic it, and every accepted token must be
// canonical — re-encoding the decoded Repro reproduces the input bytes
// exactly, and those bytes parse back to a deep-equal Repro. The seed
// corpus under testdata/fuzz/FuzzReproToken holds real classic,
// known-bad and crash tokens plus the trailing-byte and wide-field
// frames the decoder rejects.
func FuzzReproToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := ParseToken(base64.RawURLEncoding.EncodeToString(raw))
		if err != nil {
			return
		}
		if got := r.TokenBytes(); !bytes.Equal(got, raw) {
			t.Fatalf("accepted token re-encodes differently:\n got %x\nwant %x", got, raw)
		}
		back, err := ParseToken(r.Token())
		if err != nil {
			t.Fatalf("re-encoded token rejected: %v", err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("token does not round-trip:\n got %+v\nwant %+v", back, r)
		}
	})
}
