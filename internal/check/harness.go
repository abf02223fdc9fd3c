package check

import (
	"fmt"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/entropy"
	"counterlight/internal/epoch"
)

// Divergence is one disagreement between the engine and the oracle (or
// between two variants of a differential group). Kind is a stable slug
// campaigns can aggregate on; Detail is human-oriented.
type Divergence struct {
	OpIndex int
	Kind    string
	Detail  string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("op %d: %s: %s", d.OpIndex, d.Kind, d.Detail)
}

// ReadOutcome is the externally visible result of one OpRead — the
// tuple that must be bit-identical across a differential group. Info
// carries the full service detail (memo hit, correction, bad chip);
// cross-variant comparison ignores it (hit rates legitimately differ
// across memo sizes) but the concurrent differential mode compares it
// bit-for-bit against the serialized replay.
type ReadOutcome struct {
	OpIndex int
	OK      bool
	Plain   cipher.Block
	Mode    epoch.Mode
	Info    core.ReadInfo
}

// RunResult is one program replayed on one variant. Div is nil when
// the engine agreed with the oracle on every operation.
type RunResult struct {
	Variant string
	Reads   []ReadOutcome
	Stats   core.EngineStats
	Div     *Divergence
}

// checker walks a program op by op, driving the engine and the oracle
// in lockstep.
type checker struct {
	e      *core.Engine
	v      Variant
	oracle *Oracle
	limit  uint32 // effective counter limit
}

// newCheckerFor builds a fresh checker (engine + oracle) for one
// variant — the shared setup of Replay and the concurrent journal
// replay in concurrent.go.
func newCheckerFor(v Variant, eccOff bool) (*checker, error) {
	opts := v.Options(eccOff)
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, fmt.Errorf("check: variant %s: %w", v.Name, err)
	}
	limit := opts.CounterLimit
	if limit == 0 {
		limit = ctrblock.CounterMax
	}
	return &checker{e: e, v: v, oracle: NewOracle(), limit: limit}, nil
}

// Replay runs the repro's program against its variant's engine,
// checking every operation against the oracle. It stops at the first
// divergence (the shrinker depends on that). The returned error is a
// setup failure only (unknown variant); divergences are data, not
// errors.
func Replay(r Repro) (RunResult, error) {
	v, err := VariantByName(r.Variant)
	if err != nil {
		return RunResult{}, err
	}
	c, err := newCheckerFor(v, r.ECCOff)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Variant: v.Name}
	for i, op := range r.Program.Ops {
		var div *Divergence
		switch op.Kind {
		case OpWrite:
			div = c.write(op)
		case OpRead:
			var out ReadOutcome
			out, div = c.read(op)
			out.OpIndex = i
			res.Reads = append(res.Reads, out)
		case OpFault:
			div = c.fault(op)
		case OpFlush:
			// NVM-only: the serial engine has no persistence domain, so
			// a flush changes nothing observable here.
		}
		if div != nil {
			div.OpIndex = i
			res.Div = div
			break
		}
	}
	res.Stats = c.e.Stats()
	return res, nil
}

func div(kind, format string, args ...any) *Divergence {
	return &Divergence{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// write drives one OpWrite and checks the stored codeword against an
// independent recomputation from the oracle's plaintext.
func (c *checker) write(op Op) *Divergence {
	addr := uint64(op.Block) * 64
	vm := int(op.VM) % c.v.VMs
	plain := op.Payload()
	b := c.oracle.block(op.Block)
	prevCtr := b.ctr
	prevPermCL := b.permCL

	if err := c.e.WriteAs(vm, addr, plain, op.Mode); err != nil {
		return div("write-error", "WriteAs(vm=%d, %#x, %v) failed: %v", vm, addr, op.Mode, err)
	}
	cw, ok := c.e.Snapshot(addr)
	if !ok {
		return div("write-lost", "no codeword stored at %#x after write", addr)
	}
	meta := cw.DecodeMeta()
	permCL := c.e.IsPermanentCounterless(addr)
	ctrNow := c.e.Counters().Counter(addr)

	switch {
	case meta == ctrblock.CounterlessFlag:
		// Counterless-effective write: requested, forced by an earlier
		// saturation, or saturating right now (§IV-C).
		if op.Mode == epoch.CounterMode {
			if !permCL {
				return div("mode-mismatch", "counter-mode write stored counterless without permanent flag at %#x", addr)
			}
			if !prevPermCL {
				// Fresh saturation claim: legal only when the block's
				// own counter ran out of headroom. The engine falls
				// back from an over-limit W to old+1, so saturation is
				// strictly per-block (§IV-C): old+1 must exceed the
				// limit, i.e. the counter was already sitting on it.
				if uint64(prevCtr)+1 <= uint64(c.limit) {
					return div("spurious-saturation",
						"block %#x saturated with ctr=%d, limit=%d — the counter had headroom",
						addr, prevCtr, c.limit)
				}
			}
		}
		if ctrNow != prevCtr {
			return div("counter-moved", "counterless write moved counter %d -> %d at %#x", prevCtr, ctrNow, addr)
		}
		// Independent recomputation through the VM's own key — on the
		// textbook reference AES, so the engine's crypto/aes is
		// checked against a genuinely independent implementation
		// rather than against itself.
		cls := c.e.ReferenceCounterlessCipher(vm)
		ct := cls.Encrypt(addr, plain)
		mac := cls.MAC(addr, ct, uint32(ctrblock.CounterlessFlag))
		if want := ecc.Encode(ct, mac, ctrblock.CounterlessFlag); cw != want {
			return div("codeword-mismatch", "counterless codeword at %#x differs from direct recomputation", addr)
		}
		c.oracle.noteWrite(op.Block, plain, epoch.Counterless, prevCtr, vm, permCL)

	case meta <= ctrblock.CounterMax:
		if op.Mode != epoch.CounterMode {
			return div("mode-mismatch", "counterless write stored counter metadata %d at %#x", meta, addr)
		}
		if permCL || prevPermCL {
			return div("saturation-ignored", "permanently counterless block %#x wrote counter metadata %d", addr, meta)
		}
		if uint64(ctrNow) != meta {
			return div("meta-counter-mismatch", "stored meta %d but counter store says %d at %#x", meta, ctrNow, addr)
		}
		if ctrNow <= prevCtr {
			return div("counter-not-monotonic", "counter %d -> %d at %#x", prevCtr, ctrNow, addr)
		}
		if ctrNow > c.limit {
			return div("counter-over-limit", "counter %d exceeds limit %d at %#x", ctrNow, c.limit, addr)
		}
		// Independent recomputation through the global counter key,
		// again on the reference AES (see the counterless arm).
		cm := c.e.ReferenceCounterCipher()
		ct := cm.Encrypt(meta, addr, plain)
		mac := cm.MAC(meta, addr, plain, ctrNow)
		if want := ecc.Encode(ct, mac, meta); cw != want {
			return div("codeword-mismatch", "counter-mode codeword at %#x differs from direct recomputation", addr)
		}
		// RMCC invariant: a memoized pad must equal direct AES.
		if c.e.Memo().Peek(ctrNow) {
			w, _ := c.e.Memo().Lookup(ctrNow)
			if w != cm.CounterAES(uint64(ctrNow)) {
				return div("memo-pad-mismatch", "memoized counter-AES for ctr=%d differs from direct AES", ctrNow)
			}
		}
		c.oracle.noteWrite(op.Block, plain, epoch.CounterMode, ctrNow, vm, false)

	default:
		return div("meta-illegal", "stored metadata %#x is neither a counter nor the flag at %#x", meta, addr)
	}
	return nil
}

// read drives one OpRead and checks the outcome against the oracle's
// contract: clean blocks read back exactly, single-chip faults always
// correct (chipkill), multi-chip faults are always detected.
func (c *checker) read(op Op) (ReadOutcome, *Divergence) {
	addr := uint64(op.Block) * 64
	b := c.oracle.block(op.Block)
	got, info, err := c.e.Read(addr)
	out := ReadOutcome{OK: err == nil, Plain: got, Mode: info.Mode, Info: info}

	if !b.written {
		if err == nil {
			return out, div("unwritten-read-succeeded", "read of never-written block %#x returned data", addr)
		}
		return out, nil
	}
	faulty := b.faultyChips()
	switch len(faulty) {
	case 0:
		if err != nil {
			return out, div("clean-read-failed", "fault-free block %#x: %v", addr, err)
		}
		if got != b.plain {
			return out, div("plaintext-mismatch", "fault-free block %#x decrypted to wrong plaintext", addr)
		}
		if info.Mode != b.mode {
			return out, div("mode-mismatch", "block %#x read as %v, oracle says %v", addr, info.Mode, b.mode)
		}
		if info.Corrected {
			return out, div("phantom-correction", "fault-free block %#x reported a correction (chip %d)", addr, info.BadChip)
		}
	case 1:
		// Chipkill contract: a single faulty chip always corrects.
		// This expectation deliberately ignores DisableCorrection —
		// the known-bad mutation must diverge here.
		if err != nil {
			return out, div("uncorrected-single-fault", "single-chip fault (chip %d) at %#x not corrected: %v", faulty[0], addr, err)
		}
		if got != b.plain {
			return out, div("plaintext-mismatch", "corrected block %#x decrypted to wrong plaintext", addr)
		}
		if !info.Corrected {
			return out, div("silent-fault", "single-chip fault (chip %d) at %#x read without correction", faulty[0], addr)
		}
		if info.BadChip != faulty[0] {
			return out, div("wrong-bad-chip", "correction at %#x blamed chip %d, fault was on chip %d", addr, info.BadChip, faulty[0])
		}
		if info.Mode != b.mode {
			return out, div("mode-mismatch", "corrected block %#x read as %v, oracle says %v", addr, info.Mode, b.mode)
		}
		if info.EntropyResolved && entropy.Bits(b.plain) >= entropy.Threshold {
			return out, div("entropy-overconfident",
				"entropy disambiguation accepted a high-entropy plaintext (%.3f bits) at %#x",
				entropy.Bits(b.plain), addr)
		}
	default:
		// Beyond chipkill's reach: detection (a DUE) is the only
		// acceptable outcome; any "success" is silent corruption.
		if err == nil {
			return out, div("multi-fault-consumed", "%d-chip fault at %#x read back without an error", len(faulty), addr)
		}
	}
	return out, nil
}

// fault drives one OpFault. Faulting a never-written block is a no-op
// (the engine has no codeword to corrupt); on a written block the
// injection must succeed and is mirrored into the oracle.
func (c *checker) fault(op Op) *Divergence {
	addr := uint64(op.Block) * 64
	b := c.oracle.block(op.Block)
	pattern := op.Pattern
	if op.Stuck {
		cw, ok := c.e.Snapshot(addr)
		if !ok {
			return nil
		}
		switch {
		case int(op.Chip) < ecc.DataChips:
			pattern = cw.Data[op.Chip]
		case int(op.Chip) == ecc.MACChip:
			pattern = cw.MAC
		default:
			pattern = cw.Parity
		}
		if pattern == 0 {
			pattern = 1
		}
	}
	err := c.e.InjectFault(addr, int(op.Chip), pattern)
	if !b.written {
		if err == nil {
			return div("fault-on-unwritten", "injected a fault into never-written block %#x", addr)
		}
		return nil
	}
	if err != nil {
		return div("fault-rejected", "InjectFault(%#x, chip %d): %v", addr, op.Chip, err)
	}
	c.oracle.noteFault(op.Block, int(op.Chip), pattern)
	return nil
}

// Differential replays one program across the whole variant matrix and
// cross-checks read outcomes within each comparable group. It returns
// every per-variant result plus the first divergence found: a
// per-variant oracle disagreement takes precedence (it shrinks
// better); otherwise a cross-variant outcome mismatch.
func Differential(prog Program, eccOff bool) ([]RunResult, *Divergence, error) {
	results := make([]RunResult, 0, len(Variants))
	for _, v := range Variants {
		rr, err := Replay(Repro{Variant: v.Name, ECCOff: eccOff, Program: prog})
		if err != nil {
			return nil, nil, err
		}
		results = append(results, rr)
	}
	for _, rr := range results {
		if rr.Div != nil {
			d := *rr.Div
			d.Detail = fmt.Sprintf("[%s] %s", rr.Variant, d.Detail)
			return results, &d, nil
		}
	}
	// Cross-variant: within a group, every read must agree exactly.
	ref := make(map[string]*RunResult)
	for i := range results {
		rr := &results[i]
		v := Variants[i]
		base, ok := ref[v.Group]
		if !ok {
			ref[v.Group] = rr
			continue
		}
		if len(rr.Reads) != len(base.Reads) {
			return results, div("differential", "[%s vs %s] read counts differ: %d vs %d",
				base.Variant, rr.Variant, len(base.Reads), len(rr.Reads)), nil
		}
		for j := range rr.Reads {
			a, b := base.Reads[j], rr.Reads[j]
			if a.OK != b.OK || a.Mode != b.Mode || a.Plain != b.Plain {
				d := div("differential", "[%s vs %s] read outcomes differ (ok %v/%v, mode %v/%v)",
					base.Variant, rr.Variant, a.OK, b.OK, a.Mode, b.Mode)
				d.OpIndex = a.OpIndex
				return results, d, nil
			}
		}
	}
	return results, nil, nil
}
