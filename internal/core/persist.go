// NVM persistence hooks: the slices of engine state a crash-recovery
// path must force from a journal rather than re-derive. Counter
// values are forced through Counters().ForceCounter; the hooks here
// cover the side tables (VM key ownership) and expose the block set a
// recovery diff walks. See internal/nvm for the persistence domain
// that uses them.
package core

import (
	"fmt"
	"sort"
)

// BindVM records which VM's counterless key owns addr without
// performing a write. Recovery replays journaled ownership with it so
// post-recovery reads pick the right per-VM cipher.
func (e *Engine) BindVM(addr uint64, vm int) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	if vm < 0 || vm >= len(e.cls) {
		return fmt.Errorf("core: VM %d out of range [0,%d)", vm, len(e.cls))
	}
	e.vmOf[addr] = vm
	return nil
}

// VMOf returns the VM bound to addr (0 when never written).
func (e *Engine) VMOf(addr uint64) int { return e.vmOf[addr] }

// Blocks returns the sorted addresses of every block present in
// memory — the state surface a recovery diff walks.
func (e *Engine) Blocks() []uint64 {
	out := make([]uint64, 0, len(e.mem))
	for a := range e.mem {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiffState compares two engines' durable state block for block —
// presence, stored codeword, counter, permanent-counterless flag and
// VM ownership — and describes the first difference, or returns ""
// when the states are identical.
func DiffState(got, want *Engine) string {
	gb, wb := got.Blocks(), want.Blocks()
	if len(gb) != len(wb) {
		return fmt.Sprintf("%d blocks vs %d", len(gb), len(wb))
	}
	for _, a := range wb {
		wcw, wok := want.Snapshot(a)
		gcw, gok := got.Snapshot(a)
		switch {
		case wok != gok || wcw != gcw:
			return fmt.Sprintf("block %#x codeword differs", a)
		case want.Counters().Counter(a) != got.Counters().Counter(a):
			return fmt.Sprintf("block %#x counter %d vs %d", a, got.Counters().Counter(a), want.Counters().Counter(a))
		case want.IsPermanentCounterless(a) != got.IsPermanentCounterless(a):
			return fmt.Sprintf("block %#x permanent-counterless differs", a)
		case want.VMOf(a) != got.VMOf(a):
			return fmt.Sprintf("block %#x vm %d vs %d", a, got.VMOf(a), want.VMOf(a))
		}
	}
	return ""
}
