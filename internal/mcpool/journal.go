package mcpool

// Persistent journal wire format, the pool's only journal: a
// length-prefixed, CRC-protected record per applied op, carrying the
// *resolved* outcome (concrete mode, counter value,
// permanent-counterless flag, resulting codeword) so recovery can
// force state instead of re-deriving it — the memoization table's
// shared write value W dies with power, so a fresh engine replaying
// the same ops would pick different counters. No plaintext enters it:
// an error bit and Sum, a digest of the response (ResponseSum), let a
// verifier that re-executes the log check every response. Sum is keyed
// by the engine's counter-mode secrets, which never reach the journal,
// so the log's reader can neither forge a Sum nor test a guessed
// plaintext against one.
//
// The format is strictly prefix-recoverable: a crash can tear the
// last record (the NVM model persists each append in two halves), so
// DecodeJournal returns every complete record plus ErrTorn for an
// incomplete tail. Anything else malformed — bad CRC, unknown kind,
// trailing garbage inside a record — is an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
	"counterlight/internal/wire"
)

// ErrTorn marks a journal whose final record is incomplete — the
// normal signature of a crash mid-append. The decoded prefix is
// valid; recovery truncates the tail.
var ErrTorn = errors.New("mcpool: torn journal tail")

// maxEntryBody bounds a record body so a corrupt length prefix cannot
// drive a huge allocation. The largest legal body is well under this.
const maxEntryBody = 256

// Entry is one persistent journal record: an applied operation with
// its resolved metadata. Producers fill what they know — the pool
// journals everything it can see; reads carry no codeword.
type Entry struct {
	Seq  uint64 // 1-based per-journal apply sequence
	Kind OpKind // OpRead, OpWrite, or OpFault
	Addr uint64
	VM   int
	Mode epoch.Mode // resolved mode (Auto already decided)

	Meta   uint64 // resolved EncryptionMetadata (counter or flag); 0 for reads
	Ctr    uint32 // engine counter for Addr after the op
	PermCL bool   // block is permanently counterless after the op

	Tag    int64 // caller op index; valid only when HasTag
	HasTag bool

	Chip    int    // fault: target chip
	Pattern uint64 // fault: XOR pattern

	CW    ecc.CodeWord // resulting codeword; valid only when HasCW
	HasCW bool

	// Err marks an op the engine rejected: it changed no durable
	// state, so Apply skips it.
	Err bool

	Sum    uint64 // ResponseSum of the op; valid only when HasSum
	HasSum bool
}

const (
	entryFlagPermCL = 1 << 0
	entryFlagHasCW  = 1 << 1
	entryFlagHasTag = 1 << 2
	entryFlagErr    = 1 << 3
	entryFlagHasSum = 1 << 4
	entryFlagsKnown = entryFlagPermCL | entryFlagHasCW | entryFlagHasTag | entryFlagErr | entryFlagHasSum
)

// ResponseSum is the digest an Entry carries of what the client saw:
// the payload and applied mode of a write, the plaintext and ReadInfo
// of a read. It is cm's Digest of the block and a tag word packing
// the kind, mode and read flags, so it is keyed by the engine. The
// pool computes it at apply time through the shard engine's cipher; a
// verifier recomputes it from re-executed responses through any
// cipher with the same keys.
func ResponseSum(cm *cipher.CounterMode, req Request, resp Response) uint64 {
	if req.Kind == OpWrite {
		return cm.Digest(req.Data, uint64(OpWrite)|uint64(resp.Mode)<<8)
	}
	i := resp.Info
	return cm.Digest(resp.Plain, uint64(OpRead)|uint64(i.Mode)<<8|uint64(byte(i.BadChip))<<16|
		flagBit(i.MemoHit)<<24|flagBit(i.Corrected)<<25|flagBit(i.EntropyResolved)<<26)
}

func flagBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// AppendEntry appends e's wire encoding to buf and returns the
// extended slice. Layout: uint32 body length, uint32 CRC32(body),
// body. The body length and CRC let recovery distinguish a torn tail
// (incomplete bytes) from corruption (bad CRC).
func AppendEntry(buf []byte, e Entry) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled below
	buf = binary.AppendUvarint(buf, e.Seq)
	buf = append(buf, byte(e.Kind))
	buf = binary.AppendUvarint(buf, e.Addr)
	buf = binary.AppendVarint(buf, int64(e.VM))
	buf = append(buf, byte(e.Mode))
	var flags byte
	if e.PermCL {
		flags |= entryFlagPermCL
	}
	if e.HasCW {
		flags |= entryFlagHasCW
	}
	if e.HasTag {
		flags |= entryFlagHasTag
	}
	if e.Err {
		flags |= entryFlagErr
	}
	if e.HasSum {
		flags |= entryFlagHasSum
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, e.Meta)
	buf = binary.AppendUvarint(buf, uint64(e.Ctr))
	if e.HasTag {
		buf = binary.AppendVarint(buf, e.Tag)
	}
	if e.Kind == OpFault {
		buf = binary.AppendVarint(buf, int64(e.Chip))
		buf = binary.AppendUvarint(buf, e.Pattern)
	}
	if e.HasCW {
		for _, d := range e.CW.Data {
			buf = binary.LittleEndian.AppendUint64(buf, d)
		}
		buf = binary.LittleEndian.AppendUint64(buf, e.CW.MAC)
		buf = binary.LittleEndian.AppendUint64(buf, e.CW.Parity)
	}
	if e.HasSum {
		buf = binary.LittleEndian.AppendUint64(buf, e.Sum)
	}
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf
}

// DecodeEntry decodes one record from the front of data, returning
// the entry and the bytes consumed. ErrTorn means data ends inside
// the record; any other error means corruption.
func DecodeEntry(data []byte) (Entry, int, error) {
	if len(data) < 8 {
		return Entry{}, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > maxEntryBody {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record length %d out of range", n)
	}
	if len(data) < 8+int(n) {
		return Entry{}, 0, ErrTorn
	}
	body := data[8 : 8+n]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[4:]); got != want {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record CRC mismatch (%08x != %08x)", got, want)
	}
	r := wire.NewReader(body)
	var e Entry
	e.Seq = r.Uvarint()
	e.Kind = OpKind(r.U8())
	switch e.Kind {
	case OpRead, OpWrite, OpFault:
	default:
		return Entry{}, 0, fmt.Errorf("mcpool: journal record has unknown op kind %d", e.Kind)
	}
	e.Addr = r.Uvarint()
	e.VM = int(r.Varint())
	mode := r.U8()
	if mode > 1 {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record has unknown mode %d", mode)
	}
	e.Mode = epoch.Mode(mode)
	flags := r.U8()
	if flags&^byte(entryFlagsKnown) != 0 {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record has unknown flags %#x", flags)
	}
	e.PermCL = flags&entryFlagPermCL != 0
	e.HasCW = flags&entryFlagHasCW != 0
	e.HasTag = flags&entryFlagHasTag != 0
	e.Err = flags&entryFlagErr != 0
	e.HasSum = flags&entryFlagHasSum != 0
	e.Meta = r.Uvarint()
	ctr := r.Uvarint()
	if ctr > math.MaxUint32 {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record counter %d overflows uint32", ctr)
	}
	e.Ctr = uint32(ctr)
	if e.HasTag {
		e.Tag = r.Varint()
	}
	if e.Kind == OpFault {
		e.Chip = int(r.Varint())
		e.Pattern = r.Uvarint()
	}
	if e.HasCW {
		for i := range e.CW.Data {
			e.CW.Data[i] = r.U64()
		}
		e.CW.MAC = r.U64()
		e.CW.Parity = r.U64()
	}
	if e.HasSum {
		e.Sum = r.U64()
	}
	if r.Bad() {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record body truncated or has a non-minimal varint")
	}
	if n := r.Rest(); n != 0 {
		return Entry{}, 0, fmt.Errorf("mcpool: journal record has %d trailing bytes", n)
	}
	return e, 8 + int(n), nil
}

// DecodeJournal decodes every complete record in data, returning the
// entries, the bytes consumed, and nil, ErrTorn (incomplete tail — the
// decoded prefix is the durable state), or a corruption error.
func DecodeJournal(data []byte) ([]Entry, int, error) {
	var out []Entry
	off := 0
	for off < len(data) {
		e, n, err := DecodeEntry(data[off:])
		if err != nil {
			return out, off, err
		}
		out = append(out, e)
		off += n
	}
	return out, off, nil
}

// Apply forces the entry's resolved state onto a fresh engine — the
// recovery path's redo step. Writes and faults restore the journaled
// codeword and force the journaled counter / permanent-counterless /
// VM-ownership state; reads and rejected ops are no-ops (they never
// mutate durable state). Apply is idempotent: re-applying an entry
// whose effects are already present (snapshot overlap after a crash
// between a metadata commit and the journal truncation) changes
// nothing observable.
func (e Entry) Apply(eng *core.Engine) error {
	if e.Err {
		return nil
	}
	switch e.Kind {
	case OpRead:
		return nil
	case OpWrite:
		if err := eng.BindVM(e.Addr, e.VM); err != nil {
			return fmt.Errorf("mcpool: journal replay seq %d: %w", e.Seq, err)
		}
	case OpFault:
		// Validate the address without changing ownership.
		if err := eng.BindVM(e.Addr, eng.VMOf(e.Addr)); err != nil {
			return fmt.Errorf("mcpool: journal replay seq %d: %w", e.Seq, err)
		}
	default:
		return fmt.Errorf("mcpool: journal replay seq %d: unknown kind %d", e.Seq, e.Kind)
	}
	if e.HasCW {
		eng.Restore(e.Addr, e.CW)
	}
	if e.Ctr != 0 {
		eng.Counters().ForceCounter(e.Addr, e.Ctr)
	}
	if e.PermCL {
		eng.ForceCounterless(e.Addr)
	}
	return nil
}
