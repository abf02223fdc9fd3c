package check

// Shrink minimizes a failing repro to the smallest program that still
// diverges under Recheck — the serial harness, or the NVM
// crash/recover/diff pipeline for crash repros. It truncates after the
// first divergence, runs delta debugging over the op sequence, pulls a
// crash repro's crash step earlier, then canonicalizes payloads and
// fault patterns and compacts the address space. The result replays
// the *same class* of failure (any divergence counts — a minimization
// that surfaces a simpler bug is a win, not a miss); its Token() is
// what CI prints and `clcheck -repro` replays.
//
// Shrinking replays the program once per candidate, so it is O(n log n)
// runs on the already-truncated sequence — cheap at campaign program
// sizes.
func Shrink(r Repro) Repro {
	d := diverges(r)
	if d == nil {
		return r // not failing (or unknown variant): nothing to shrink
	}
	with := func(p Program) Repro {
		out := r
		out.Program = p
		return out
	}
	fails := func(p Program) bool { return diverges(with(p)) != nil }

	// Everything after the first divergence is dead weight. A crash
	// repro's divergence index is the op power failed in, so the
	// truncated run crashes at the same step.
	p := r.Program
	p.Ops = append([]Op(nil), p.Ops[:min(d.OpIndex+1, len(p.Ops))]...)

	// ddmin: remove chunks, halving the chunk size on a full pass with
	// no progress, down to single ops. Removing ops shifts where a
	// fixed crash step lands; the failure class may change, and that
	// is fine.
	for chunk := max(1, len(p.Ops)/2); chunk >= 1; {
		removed := false
		for start := 0; start < len(p.Ops); {
			end := min(start+chunk, len(p.Ops))
			cand := p
			cand.Ops = append(append([]Op(nil), p.Ops[:start]...), p.Ops[end:]...)
			if len(cand.Ops) > 0 && fails(cand) {
				p = cand
				removed = true
				// keep start: the next chunk slid into place
			} else {
				start = end
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk /= 2
		}
		if chunk > len(p.Ops) && len(p.Ops) > 0 {
			chunk = len(p.Ops)
		}
	}

	// Pull the crash earlier by halving: a smaller durable prefix is a
	// smaller failure explanation.
	for r.Crash && r.CrashStep > 1 {
		cand := with(p)
		cand.CrashStep = r.CrashStep / 2
		if diverges(cand) == nil {
			break
		}
		r.CrashStep = cand.CrashStep
	}

	// Canonicalize: zero payloads, single-bit fault patterns. Each
	// simplification is kept only if the program still fails.
	for i := range p.Ops {
		op := p.Ops[i]
		switch op.Kind {
		case OpWrite:
			if op.Pay != PayZero || op.PaySeed != 0 {
				cand := cloneProgram(p)
				cand.Ops[i].Pay = PayZero
				cand.Ops[i].PaySeed = 0
				if fails(cand) {
					p = cand
				}
			}
		case OpFault:
			if op.Stuck || op.Pattern != 1 {
				cand := cloneProgram(p)
				cand.Ops[i].Stuck = false
				cand.Ops[i].Pattern = 1
				if fails(cand) {
					p = cand
				}
			}
		}
	}

	// Compact the address space: renumber blocks in order of first use.
	remap := make(map[uint32]uint32)
	cand := cloneProgram(p)
	for i, op := range cand.Ops {
		n, ok := remap[op.Block]
		if !ok {
			n = uint32(len(remap))
			remap[op.Block] = n
		}
		cand.Ops[i].Block = n
	}
	cand.Blocks = max(uint32(len(remap)), 1)
	if fails(cand) {
		p = cand
	}
	return with(p)
}

func cloneProgram(p Program) Program {
	p.Ops = append([]Op(nil), p.Ops...)
	return p
}
