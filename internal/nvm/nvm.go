// Package nvm models a crash-consistent persistent-memory mode for
// the counter-light engine, after "From Ideal to Practice" (arXiv
// 2307.02050): once the persistence domain extends into NVM, data
// writebacks persist immediately but the counter/metadata machinery
// — the very state the paper's design keeps cheap — can miss the
// flush window and desync from data across a power failure.
//
// The model splits the persistence domain into three durable regions:
//
//   - a write-ahead journal of applied ops (mcpool's persistent wire
//     format), appended before the data codeword persists;
//   - the data region, one codeword per block, persisted in place
//     right after its journal record;
//   - two alternating metadata snapshot slots, each MAC-committed,
//     holding the full counter/ownership table as of a flush.
//
// Dirty metadata sits in a bounded write-pending queue between
// flushes; filling it forces an implicit flush (backpressure). A
// flush writes the alternate snapshot slot chunk by chunk, commits it
// with a MAC, then truncates the journal — so a crash at any point
// leaves either a committed slot plus a replayable journal suffix, or
// a torn slot (detected by its MAC) plus the previous slot and the
// full journal.
//
// Crash injection is exact: every durable mutation is one or more
// persistence steps, and an armed fault.CrashPoint cuts power before
// the step it fires on. Journal appends take two steps so a crash can
// tear a record in half; recovery truncates the torn tail via the
// record CRCs.
package nvm

import (
	"counterlight/internal/crypto/keccak"
	"counterlight/internal/ecc"
	"counterlight/internal/fault"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
)

// snapshotMACKey commits snapshot slots; a torn slot fails its MAC.
var snapshotMACKey = []byte("nvm-snapshot-commit-key")

// dataCell is one durable data-region block: the codeword and the
// journal seq of the op that persisted it.
type dataCell struct {
	cw  ecc.CodeWord
	seq uint64
}

// slot is one metadata snapshot slot. A slot is valid iff its MAC
// matches its bytes; a crash mid-write leaves partial bytes under the
// stale MAC of the previous commit, which cannot verify.
type slot struct {
	buf []byte
	mac uint64
	seq uint64 // journal seq covered by the committed snapshot
}

// Domain is the durable side of the persistence boundary. Everything
// reachable from it survives a crash; everything in Engine does not.
type Domain struct {
	journal []byte
	data    map[uint64]dataCell
	slots   [2]slot
	ping    int // slot the next flush writes

	steps   uint64
	cp      *fault.CrashPoint
	crashed bool
	rec     *flight.Ring
}

// NewDomain creates an empty persistence domain. rec may be nil.
func NewDomain(rec *flight.Ring) *Domain {
	return &Domain{data: make(map[uint64]dataCell), rec: rec}
}

// ArmCrash installs (or clears, with nil) the crash point consulted
// before every persistence step.
func (d *Domain) ArmCrash(cp *fault.CrashPoint) { d.cp = cp }

// Crashed reports whether power has failed. A crashed domain rejects
// every durable mutation until PowerCycle.
func (d *Domain) Crashed() bool { return d.crashed }

// Steps returns the persistence steps executed so far — the crash
// campaign's coordinate space for CrashPoint.Step.
func (d *Domain) Steps() uint64 { return d.steps }

// PowerCycle clears the crashed state and disarms the crash point:
// the machine is back up and recovery may read the durable regions.
func (d *Domain) PowerCycle() {
	d.crashed = false
	d.cp = nil
}

// step accounts one persistence step and reports whether it completed.
// A firing crash point means power failed before the step's mutation
// reached the medium: the caller must not apply it.
func (d *Domain) step(seq uint64) bool {
	if d.crashed {
		return false
	}
	d.steps++
	if d.cp.Fire(d.steps) {
		d.crashed = true
		d.rec.Record(flight.KindCrash, -1, 0, int64(d.steps), int64(seq))
		return false
	}
	return true
}

// appendJournal persists one encoded record in two steps (two
// device-atomic halves). A crash between them tears the record: the
// bytes of the first half land, the CRC can never match, and recovery
// truncates the tail.
func (d *Domain) appendJournal(enc []byte, seq uint64) {
	half := len(enc) / 2
	if !d.step(seq) {
		return
	}
	d.journal = append(d.journal, enc[:half]...)
	if !d.step(seq) {
		return
	}
	d.journal = append(d.journal, enc[half:]...)
}

// persistData persists one block's codeword in place (one step).
func (d *Domain) persistData(addr uint64, cw ecc.CodeWord, seq uint64) {
	if !d.step(seq) {
		return
	}
	d.data[addr] = dataCell{cw: cw, seq: seq}
}

// writeSnapshot flushes the metadata snapshot: chunked writes into
// the alternate slot, a MAC commit, then journal truncation — each
// its own persistence step, so a crash can land mid-chunk (torn
// slot), between commit and truncation (idempotent replay), or
// before anything (previous slot intact).
func (d *Domain) writeSnapshot(buf []byte, seq uint64, chunk int) {
	if chunk <= 0 {
		chunk = 128
	}
	t := &d.slots[d.ping]
	for off := 0; off < len(buf); off += chunk {
		if !d.step(seq) {
			return
		}
		if off == 0 {
			// First chunk clobbers the slot: from here until the
			// commit the slot is torn and its stale MAC cannot verify.
			t.buf = t.buf[:0]
		}
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		t.buf = append(t.buf, buf[off:end]...)
	}
	if !d.step(seq) {
		return // torn: partial (or stale-MAC'd complete) slot
	}
	t.mac = keccak.MAC64(snapshotMACKey, t.buf)
	t.seq = seq
	if !d.step(seq) {
		return // committed but journal kept: replay is idempotent
	}
	d.journal = d.journal[:0]
	d.ping = 1 - d.ping
}

// bestSlot picks the newest MAC-valid snapshot slot. It returns the
// slot index (-1 if none) and whether any written slot failed its MAC
// — the torn-mid-flush signature.
func (d *Domain) bestSlot() (best int, torn bool) {
	best = -1
	for i := range d.slots {
		s := &d.slots[i]
		if len(s.buf) == 0 && s.seq == 0 {
			continue // never written
		}
		if keccak.MAC64(snapshotMACKey, s.buf) != s.mac {
			torn = true
			continue
		}
		if best < 0 || s.seq > d.slots[best].seq {
			best = i
		}
	}
	return best, torn
}

// durableJournal decodes the journal's valid prefix. A torn tail is
// expected after a crash mid-append and reported as tornTail; any
// other decode error is genuine corruption.
func (d *Domain) durableJournal() (entries []mcpool.Entry, tornTail bool, err error) {
	entries, _, err = mcpool.DecodeJournal(d.journal)
	if err == mcpool.ErrTorn {
		return entries, true, nil
	}
	return entries, false, err
}
