package nvm

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"counterlight/internal/epoch"
)

// sampleSnapshot carries every field the format has: the monitor
// timeline, a negative tag, a 32-bit-max counter and a permanently
// counterless block.
func sampleSnapshot() snapshot {
	return snapshot{
		seq:     1 << 33,
		lastTag: -1,
		monitor: &epoch.State{EpochStart: -5, Accesses: 300, Mode: epoch.Counterless,
			StartMode: epoch.CounterMode, NextFromStart: epoch.Counterless, Closed: 9},
		blocks: []snapBlock{
			{addr: 0, meta: blockMeta{ctr: 7, vm: 1}},
			{addr: 64, meta: blockMeta{ctr: math.MaxUint32, permCL: true}},
			{addr: 1 << 30, meta: blockMeta{vm: 3, permCL: true}},
		},
	}
}

// encodeSample appends one block record to the monitor-free header,
// so each rejection case below alters exactly one field.
func encodeSample(ctr uint64, flags byte) []byte {
	s := snapshot{seq: 2, lastTag: 1}
	buf := append(s.encode()[:len(s.encode())-1], 1) // block count 1
	buf = append(buf, 64)                            // addr
	buf = binary.AppendUvarint(buf, ctr)
	return append(buf, 0, flags) // vm, flags
}

// The decoder refuses what encode never writes, instead of silently
// recovering different metadata.
func TestSnapshotDecodeRejects(t *testing.T) {
	if _, err := decodeSnapshot(encodeSample(3, 1)); err != nil {
		t.Fatalf("well-formed block rejected: %v", err)
	}
	// "nvs1", seq, tag, flags, EpochStart, Accesses, then the modes.
	badMode := snapshot{monitor: &epoch.State{}}.encode()
	badMode[9] = 2
	nonMinimal := encodeSample(3, 0)
	nonMinimal = append(nonMinimal[:len(nonMinimal)-3], 0x83, 0x00, 0, 0) // ctr 3 in two bytes
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"counter 2^32+3", "overflows uint32", encodeSample(1<<32+3, 0)},
		{"block flag bit 1", "unknown flags", encodeSample(3, 2)},
		{"monitor mode 2", "unknown monitor mode", badMode},
		{"non-minimal varint", "non-minimal", nonMinimal},
	} {
		_, err := decodeSnapshot(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// FuzzSnapshotDecode: arbitrary slot bytes never panic the decoder;
// whatever it accepts re-encodes byte-identically, and encode is a
// fixed point of decode∘encode.
func FuzzSnapshotDecode(f *testing.F) {
	full := sampleSnapshot().encode()
	f.Add(full)
	f.Add(snapshot{}.encode())
	f.Add(full[:len(full)-1]) // truncated
	f.Add(encodeSample(1<<32+3, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		enc := s.encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decoded snapshot re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		again, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("encode output does not decode: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatal("encode is not a fixed point")
		}
	})
}
