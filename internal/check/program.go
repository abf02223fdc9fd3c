package check

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
)

// OpKind is one program step's operation.
type OpKind uint8

const (
	// OpWrite encrypts and stores a block.
	OpWrite OpKind = iota
	// OpRead fetches, verifies, and decrypts a block.
	OpRead
	// OpFault XORs a pattern into one chip of a stored block.
	OpFault
	// OpFlush drains the NVM write-pending metadata queue (crash
	// programs only; serial and concurrent replay skip/reject it).
	OpFlush
)

// PayloadKind selects how a write's plaintext is materialized.
// Payloads are derived, not stored: a (kind, seed) pair expands
// deterministically to 64 bytes, which keeps repro tokens small and
// lets the shrinker canonicalize data.
type PayloadKind uint8

const (
	// PayZero is the all-zero block (entropy 0).
	PayZero PayloadKind = iota
	// PayLow repeats a 4-byte pattern (entropy ≤ 2 bits — always
	// below the §IV-E threshold, so the entropy classifier must
	// recognise it as plaintext).
	PayLow
	// PayText draws from a 16-symbol alphabet (entropy ≤ 4 bits,
	// text-like).
	PayText
	// PayRandom is a full-entropy pseudo-random block (which the
	// classifier is allowed to mistake for a wrong decryption).
	PayRandom
)

// Op is one generated program step. Addresses are block indices (the
// byte address is Block*64); fault sites are concrete so replays are
// exact.
type Op struct {
	Kind    OpKind
	Block   uint32
	VM      uint8       // write: VM id (clamped to the variant's VM count)
	Mode    epoch.Mode  // write: requested encryption mode
	Pay     PayloadKind // write: payload class
	PaySeed uint32      // write: payload expansion seed
	Chip    uint8       // fault: chip 0..9
	Stuck   bool        // fault: stuck-at-zero (pattern read from the chip)
	Pattern uint64      // fault: XOR pattern (ignored when Stuck)
}

// splitmix is the 64-bit SplitMix finalizer, the payload expander's
// PRNG step.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Payload materializes the write's 64-byte plaintext.
func (op Op) Payload() cipher.Block {
	var b cipher.Block
	switch op.Pay {
	case PayZero:
		// all zero
	case PayLow:
		s := splitmix(uint64(op.PaySeed))
		for i := range b {
			b[i] = byte(s >> (8 * (uint(i) % 4)))
		}
	case PayText:
		x := uint64(op.PaySeed)
		const alphabet = "etaoin shrdlu.\nE"
		for i := range b {
			x = splitmix(x)
			b[i] = alphabet[x&15]
		}
	case PayRandom:
		x := uint64(op.PaySeed) ^ 0xF0F0F0F0
		for i := 0; i < len(b); i += 8 {
			x = splitmix(x)
			binary.LittleEndian.PutUint64(b[i:], x)
		}
	}
	return b
}

// Program is a replayable op sequence over a fixed block count.
type Program struct {
	Seed   int64 // generator seed (printed on every failure)
	Blocks uint32
	Ops    []Op
}

// Repro pairs a program with the engine variant it ran on — exactly
// what a token must capture to replay a failure. Crash repros
// additionally pin the persistence step at which power fails, so a
// token replays the exact crash, not just the workload.
type Repro struct {
	Variant string
	ECCOff  bool // run with trial-and-error correction disabled
	Program Program

	Crash         bool   // NVM crash repro: cut power at CrashStep
	CrashStep     uint64 // 1-based persistence step the crash fires on
	BreakRecovery bool   // arm the intentional recovery bug (self-test)
}

// Program/token size caps: decode rejects anything bigger, so a
// hostile or fuzzer-mangled token cannot allocate unbounded state.
const (
	maxTokenOps    = 1 << 17
	maxTokenBlocks = 1 << 16
)

const tokenMagic = "clk1"

// TokenBytes is the raw (pre-base64) encoding of the repro.
func (r Repro) TokenBytes() []byte {
	buf := []byte(tokenMagic)
	buf = append(buf, byte(len(r.Variant)))
	buf = append(buf, r.Variant...)
	var flags byte
	if r.ECCOff {
		flags |= 1
	}
	if r.Crash {
		flags |= 4
	}
	if r.BreakRecovery {
		flags |= 8
	}
	buf = append(buf, flags)
	if r.Crash {
		buf = binary.AppendUvarint(buf, r.CrashStep)
	}
	buf = binary.AppendUvarint(buf, uint64(r.Program.Seed))
	buf = binary.AppendUvarint(buf, uint64(r.Program.Blocks))
	buf = binary.AppendUvarint(buf, uint64(len(r.Program.Ops)))
	for _, op := range r.Program.Ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.Block))
		switch op.Kind {
		case OpWrite:
			buf = append(buf, op.VM, byte(op.Mode), byte(op.Pay))
			buf = binary.AppendUvarint(buf, uint64(op.PaySeed))
		case OpFault:
			var fl byte
			if op.Stuck {
				fl |= 1
			}
			buf = append(buf, op.Chip, fl)
			buf = binary.AppendUvarint(buf, op.Pattern)
		}
	}
	return buf
}

// Token renders the repro as the string clcheck -repro accepts.
func (r Repro) Token() string {
	return base64.RawURLEncoding.EncodeToString(r.TokenBytes())
}

// byteReader walks the raw token, failing sticky on truncation.
type byteReader struct {
	buf []byte
	pos int
	err error
}

func (b *byteReader) u8() byte {
	if b.err != nil {
		return 0
	}
	if b.pos >= len(b.buf) {
		b.err = fmt.Errorf("check: truncated token at byte %d", b.pos)
		return 0
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

func (b *byteReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.buf[b.pos:])
	if n <= 0 {
		b.err = fmt.Errorf("check: bad varint at byte %d", b.pos)
		return 0
	}
	b.pos += n
	return v
}

// uvarint32 reads a uvarint that must fit op i's 32-bit field.
func (b *byteReader) uvarint32(field string, i uint64) uint32 {
	v := b.uvarint()
	if b.err == nil && v > math.MaxUint32 {
		b.err = fmt.Errorf("check: op %d: %s %d does not fit 32 bits", i, field, v)
	}
	return uint32(v)
}

// parseTokenBytes decodes and validates a raw token. Every field is
// bounds-checked, 32-bit fields reject wider values instead of
// truncating them, and trailing bytes are an error, so an accepted
// token names exactly the program its bytes encode and the returned
// repro is always safe to Replay.
func parseTokenBytes(data []byte) (Repro, error) {
	var r Repro
	if len(data) < len(tokenMagic) || string(data[:len(tokenMagic)]) != tokenMagic {
		return r, fmt.Errorf("check: not a repro token (bad magic)")
	}
	br := &byteReader{buf: data, pos: len(tokenMagic)}
	nameLen := int(br.u8())
	if br.err == nil && br.pos+nameLen > len(data) {
		return r, fmt.Errorf("check: truncated variant name")
	}
	if br.err == nil {
		r.Variant = string(data[br.pos : br.pos+nameLen])
		br.pos += nameLen
	}
	flags := br.u8()
	if flags&^byte(1|4|8) != 0 {
		return r, fmt.Errorf("check: unknown token flags %#x", flags)
	}
	r.ECCOff = flags&1 != 0
	r.Crash = flags&4 != 0
	r.BreakRecovery = flags&8 != 0
	if r.BreakRecovery && !r.Crash {
		return r, fmt.Errorf("check: break-recovery flag without crash flag")
	}
	if r.Crash {
		r.CrashStep = br.uvarint()
	}
	r.Program.Seed = int64(br.uvarint())
	blocks := br.uvarint()
	nops := br.uvarint()
	if br.err != nil {
		return r, br.err
	}
	if blocks == 0 || blocks > maxTokenBlocks {
		return r, fmt.Errorf("check: block count %d out of [1,%d]", blocks, maxTokenBlocks)
	}
	if nops > maxTokenOps {
		return r, fmt.Errorf("check: op count %d exceeds %d", nops, maxTokenOps)
	}
	r.Program.Blocks = uint32(blocks)
	r.Program.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		var op Op
		op.Kind = OpKind(br.u8())
		op.Block = br.uvarint32("block", i)
		switch op.Kind {
		case OpWrite:
			op.VM = br.u8()
			m := br.u8()
			if m > 1 {
				return r, fmt.Errorf("check: op %d: bad mode %d", i, m)
			}
			op.Mode = epoch.Mode(m)
			p := br.u8()
			if p > uint8(PayRandom) {
				return r, fmt.Errorf("check: op %d: bad payload kind %d", i, p)
			}
			op.Pay = PayloadKind(p)
			op.PaySeed = br.uvarint32("payload seed", i)
		case OpRead, OpFlush:
			// block only (flush ignores it but keeps the frame uniform)
		case OpFault:
			op.Chip = br.u8()
			fl := br.u8()
			op.Stuck = fl&1 != 0
			op.Pattern = br.uvarint()
			if op.Chip > 9 {
				return r, fmt.Errorf("check: op %d: bad chip %d", i, op.Chip)
			}
		default:
			return r, fmt.Errorf("check: op %d: unknown kind %d", i, op.Kind)
		}
		if br.err != nil {
			return r, br.err
		}
		if op.Block >= r.Program.Blocks {
			return r, fmt.Errorf("check: op %d: block %d out of range %d", i, op.Block, r.Program.Blocks)
		}
		r.Program.Ops = append(r.Program.Ops, op)
	}
	if br.pos != len(data) {
		return r, fmt.Errorf("check: %d trailing bytes after the last op", len(data)-br.pos)
	}
	return r, nil
}

// ParseToken decodes a clcheck -repro token.
func ParseToken(s string) (Repro, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Repro{}, fmt.Errorf("check: token is not base64url: %w", err)
	}
	return parseTokenBytes(raw)
}
