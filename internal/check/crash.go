package check

// Crash-consistency differential mode: generated programs run through
// the NVM persistence engine with a crash point armed at an arbitrary
// persistence step, power fails, recovery rebuilds the engine from the
// durable regions, and the recovered state is diffed bit-for-bit
// against a never-crashed oracle that replayed exactly the durable
// prefix. Any disagreement — a lost block, a stale counter, a wrong
// codeword, a different read-back — is a crash-consistency bug, and
// shrinks to a replayable token just like the serial campaigns.
//
// The oracle is sound because the NVM engine journals every mutation
// before its data persists: the durable journal entries always form a
// prefix of the applied mutations (in op-tag order), so "replay every
// mutating op with tag ≤ RecoveryReport.LastTag on a fresh engine"
// reconstructs precisely the state a crash-free execution of the
// durable prefix would have reached. Counter evolution matches because
// the memoization table's shared write value W is a deterministic
// function of the write sequence alone.

import (
	"fmt"

	"counterlight/internal/core"
	"counterlight/internal/ecc"
	"counterlight/internal/fault"
	"counterlight/internal/nvm"
	"counterlight/internal/obs/flight"
)

// CrashResult is one crash-replay run: workload, crash, recovery,
// diff.
type CrashResult struct {
	Variant string
	Ops     int    // program length
	Done    int    // ops fully applied before power failed
	Crashed bool   // whether the armed crash point actually fired
	Steps   uint64 // persistence steps the run executed
	Report  nvm.RecoveryReport
	// Div is the first disagreement between the recovered engine and
	// the never-crashed oracle; nil means recovery was exact.
	Div *Divergence
}

// resolveStuck materializes a stuck-at-zero fault's XOR pattern from
// the engine's current codeword — the same point-in-time resolution
// the serial checker uses, and deterministic across the NVM run and
// the oracle because both apply the identical op prefix.
func resolveStuck(e *core.Engine, op Op) uint64 {
	if !op.Stuck {
		return op.Pattern
	}
	cw, ok := e.Snapshot(uint64(op.Block) * 64)
	if !ok {
		return 1 // unwritten block: injection fails either way
	}
	var p uint64
	switch {
	case int(op.Chip) < ecc.DataChips:
		p = cw.Data[op.Chip]
	case int(op.Chip) == ecc.MACChip:
		p = cw.MAC
	default:
		p = cw.Parity
	}
	if p == 0 {
		p = 1
	}
	return p
}

// applyCrashOps drives prog through the NVM engine serially, tagging
// each op with its index, until the program ends or power fails. It
// returns the number of ops that fully completed; the only error it
// can surface besides nvm.ErrCrashed is a genuine engine failure.
func applyCrashOps(nv *nvm.Engine, v Variant, prog Program) (int, error) {
	applied := 0
	for i, op := range prog.Ops {
		addr := uint64(op.Block) * 64
		var err error
		switch op.Kind {
		case OpWrite:
			err = nv.Write(int64(i), int(op.VM)%v.VMs, addr, op.Payload(), op.Mode)
		case OpRead:
			_, _, err = nv.Read(addr)
			if err != nil && err != nvm.ErrCrashed {
				err = nil // DUEs and unwritten reads are data, not failures
			}
		case OpFault:
			err = nv.InjectFault(int64(i), addr, int(op.Chip), resolveStuck(nv.Core(), op))
			if err != nil && err != nvm.ErrCrashed {
				err = nil // fault on a never-written block is a no-op
			}
		case OpFlush:
			err = nv.Flush()
		}
		if err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// CrashReplay runs the repro's program through the NVM engine with its
// crash point armed, recovers from the resulting domain, and diffs the
// recovered state bit-for-bit against a never-crashed oracle of the
// durable prefix. fl may be nil; when set, the crash, the recovery,
// and any divergence land in the ring. Divergences are data, not
// errors; the returned error is a setup failure only.
func CrashReplay(r Repro, fl *flight.Ring) (CrashResult, error) {
	v, err := VariantByName(r.Variant)
	if err != nil {
		return CrashResult{}, err
	}
	cfg := nvm.Config{Engine: v.Options(r.ECCOff), Flight: fl, BreakRecovery: r.BreakRecovery}
	nv, err := nvm.New(cfg)
	if err != nil {
		return CrashResult{}, err
	}
	res := CrashResult{Variant: v.Name, Ops: len(r.Program.Ops)}
	if r.Crash && r.CrashStep > 0 {
		nv.ArmCrash(&fault.CrashPoint{Step: r.CrashStep})
	}
	applied, err := applyCrashOps(nv, v, r.Program)
	if err != nil && err != nvm.ErrCrashed {
		return res, err
	}
	res.Done = applied
	res.Crashed = nv.Crashed()
	res.Steps = nv.Domain().Steps()

	rec, rep, rerr := nvm.Recover(nv.Domain(), cfg)
	res.Report = rep
	if rerr != nil {
		res.Div = div("recovery-failed", "recovery errored: %v", rerr)
		res.Div.OpIndex = applied
		fl.Record(flight.KindDivergence, -1, 0, int64(applied), 0)
		return res, nil
	}

	// Never-crashed oracle: a fresh engine replaying exactly the
	// durable prefix — every mutating op whose tag recovery reports
	// as durable, in program order. Reads never touch durable state
	// and are skipped.
	oracle, err := core.NewEngine(v.Options(r.ECCOff))
	if err != nil {
		return res, err
	}
	for i, op := range r.Program.Ops {
		if int64(i) > rep.LastTag {
			break
		}
		addr := uint64(op.Block) * 64
		switch op.Kind {
		case OpWrite:
			if werr := oracle.WriteAs(int(op.VM)%v.VMs, addr, op.Payload(), op.Mode); werr != nil {
				return res, fmt.Errorf("check: crash oracle write op %d: %w", i, werr)
			}
		case OpFault:
			// Unwritten-block faults fail here exactly as they failed
			// (and went unjournaled) in the NVM run.
			_ = oracle.InjectFault(addr, int(op.Chip), resolveStuck(oracle, op))
		}
	}
	res.Div = diffRecovered(rec.Core(), oracle)
	if res.Div != nil {
		res.Div.OpIndex = applied
		fl.Record(flight.KindDivergence, -1, 0, int64(applied), 0)
	}
	return res, nil
}

// diffRecovered compares a recovered engine against the oracle over
// the union of their block sets: codeword, counter, permanent-
// counterless flag, VM ownership, and the externally visible read-back
// (plaintext + error status) must all match exactly.
func diffRecovered(re, oracle *core.Engine) *Divergence {
	want, got := oracle.Blocks(), re.Blocks()
	wantSet := make(map[uint64]bool, len(want))
	for _, a := range want {
		wantSet[a] = true
	}
	for _, a := range got {
		if !wantSet[a] {
			return div("recovery-extra-block", "block %#x exists after recovery but not in the never-crashed oracle", a)
		}
	}
	gotSet := make(map[uint64]bool, len(got))
	for _, a := range got {
		gotSet[a] = true
	}
	for _, a := range want {
		if !gotSet[a] {
			return div("recovery-lost-block", "block %#x present in the oracle but lost by recovery", a)
		}
	}
	for _, a := range want {
		ocw, _ := oracle.Snapshot(a)
		rcw, _ := re.Snapshot(a)
		if ocw != rcw {
			return div("recovery-codeword", "block %#x codeword differs after recovery", a)
		}
		if oc, rc := oracle.Counters().Counter(a), re.Counters().Counter(a); oc != rc {
			return div("recovery-counter", "block %#x counter %d after recovery, oracle says %d", a, rc, oc)
		}
		if op, rp := oracle.IsPermanentCounterless(a), re.IsPermanentCounterless(a); op != rp {
			return div("recovery-permcl", "block %#x permanently-counterless=%v after recovery, oracle says %v", a, rp, op)
		}
		if ov, rv := oracle.VMOf(a), re.VMOf(a); ov != rv {
			return div("recovery-vm", "block %#x owned by VM %d after recovery, oracle says %d", a, rv, ov)
		}
		oplain, _, oerr := oracle.Read(a)
		rplain, _, rerr := re.Read(a)
		if (oerr == nil) != (rerr == nil) {
			return div("recovery-read", "block %#x read ok=%v after recovery, oracle ok=%v (recovered: %v, oracle: %v)",
				a, rerr == nil, oerr == nil, rerr, oerr)
		}
		if oerr == nil && oplain != rplain {
			return div("recovery-read", "block %#x reads back different plaintext after recovery", a)
		}
	}
	return nil
}

// crashSeedSalt decorrelates the crash-step draw from the program
// generator's rng stream, so the same seed yields independent workload
// and crash-point choices.
const crashSeedSalt = 0xc7a54c0de

// GenerateCrashRepro derives a crash repro from the seed alone: the
// seed's program, plus a crash step drawn uniformly from the run's
// actual persistence-step count (measured by a crash-free dry run), so
// crashes land between journal halves, mid-batch, and mid-flush alike.
func GenerateCrashRepro(seed int64, variant string, cfg GenConfig) (Repro, error) {
	v, err := VariantByName(variant)
	if err != nil {
		return Repro{}, err
	}
	prog := Generate(seed, cfg)
	nv, err := nvm.New(nvm.Config{Engine: v.Options(false)})
	if err != nil {
		return Repro{}, err
	}
	if _, err := applyCrashOps(nv, v, prog); err != nil {
		return Repro{}, err
	}
	r := Repro{Variant: variant, Program: prog, Crash: true}
	if steps := nv.Domain().Steps(); steps > 0 {
		r.CrashStep = 1 + splitmix(uint64(seed)^crashSeedSalt)%steps
	}
	return r, nil
}

// CrashKind is the crash-injection campaign: every (seed, variant)
// program runs on the NVM persistence engine with a seed-derived crash
// step, and recovery is diffed against a never-crashed oracle.
// breakRecovery arms the intentional recovery bug on every run (the
// campaign's teeth check); fl, when non-nil, receives crash, recovery
// and divergence events. Failures shrink to crash tokens.
func CrashKind(breakRecovery bool, fl *flight.Ring) Kind {
	return Kind{
		Name:     "crash",
		Counters: []Counter{{"crashes", "crashes fired"}, {"replayed", "journal entries replayed"}},
		Gen:      CrashGenConfig(),
		// The base matrix plus the saturation-heavy variant whose
		// permanent-counterless transitions are the hardest metadata
		// to recover.
		Variants: []string{"aes128", "ctr-sat"},
		Run: func(seed int64, variant string, gen GenConfig, eccOff bool) (Outcome, error) {
			r, err := GenerateCrashRepro(seed, variant, gen)
			if err != nil {
				return Outcome{}, err
			}
			r.ECCOff, r.BreakRecovery = eccOff, breakRecovery
			return replayCrash(r, fl)
		},
		Shrink: Shrink,
	}
}

// replayCrash is CrashReplay as a campaign Outcome.
func replayCrash(r Repro, fl *flight.Ring) (Outcome, error) {
	res, err := CrashReplay(r, fl)
	var crashed uint64
	if res.Crashed {
		crashed = 1
	}
	return Outcome{Ops: res.Ops, Div: res.Div, Repro: r,
		Counts: map[string]uint64{"crashes": crashed, "replayed": uint64(res.Report.Replayed)}}, err
}
