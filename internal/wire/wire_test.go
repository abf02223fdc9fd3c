package wire

import (
	"encoding/binary"
	"testing"
)

// Reads round-trip what encoding/binary appends; a non-minimal varint
// or a short read makes the reader bad for good.
func TestReader(t *testing.T) {
	var buf []byte
	buf = append(buf, 7)
	buf = binary.AppendUvarint(buf, 1<<40)
	buf = binary.AppendVarint(buf, -3)
	buf = binary.LittleEndian.AppendUint64(buf, 0xdeadbeef)
	r := NewReader(buf)
	if r.U8() != 7 || r.Uvarint() != 1<<40 || r.Varint() != -3 || r.U64() != 0xdeadbeef || r.Bad() || r.Rest() != 0 {
		t.Fatal("round trip failed")
	}
	if r.U8(); !r.Bad() {
		t.Fatal("read past the end not flagged")
	}
	for _, b := range [][]byte{{0x80, 0x00, 1}, {0x81, 0x80, 0x00, 1}, {0x80}} {
		r := NewReader(b)
		if v := r.Uvarint(); !r.Bad() || v != 0 || r.U8() != 0 {
			t.Errorf("% x: accepted as %d", b, v)
		}
	}
}
