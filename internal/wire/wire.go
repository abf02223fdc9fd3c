// Package wire is the decoding cursor shared by the persistence-domain
// formats — mcpool's journal records and nvm's metadata snapshots,
// both written with encoding/binary. It accepts only what those
// encoders write (varints must be minimal), so an accepted buffer
// re-encodes byte-identically. Errors are sticky: after the first
// short or malformed read every accessor returns zero and Bad reports
// true, so a decoder checks once at the end.
package wire

import "encoding/binary"

// Reader is a sticky-error cursor over a byte slice.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader starts a cursor at b[0].
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Bad reports whether any read ran short or met a malformed varint.
func (r *Reader) Bad() bool { return r.bad }

// Rest returns how many bytes are left unread.
func (r *Reader) Rest() int { return len(r.b) - r.off }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// A multi-byte encoding whose last byte is zero is not minimal.
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// Varint reads a minimally encoded zig-zag varint (binary.AppendVarint).
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}
