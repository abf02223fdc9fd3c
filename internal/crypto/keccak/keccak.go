// Package keccak computes the SHA-3 based MAC of counterless memory
// encryption on top of the standard library's crypto/sha3 (FIPS-202).
//
// Counterless memory encryption (Intel MKTME and kin) computes each
// block's MAC with SHA-3 over the data (paper §II-A); Counter-light
// reuses that construction for blocks in counterless mode, adding the
// EncryptionMetadata word as an extra input (paper §IV-C). The same
// MAC binds each integrity-tree node in internal/ctrblock.
package keccak

import (
	"crypto/sha3"
	"encoding/binary"
)

// MAC64 computes a 64-bit MAC as the first 8 bytes of
// SHA3-256(key || data...), read little-endian — the construction the
// counterless mode uses for its per-block integrity check.
//
// It is on the engine's per-read/per-write hot path (the counterless
// MAC and every ctrblock tree-node MAC) and performs no allocation:
// the hash state and the digest both stay on the stack.
func MAC64(key []byte, data ...[]byte) uint64 {
	h := sha3.New256()
	h.Write(key)
	for _, d := range data {
		h.Write(d)
	}
	var sum [32]byte
	return binary.LittleEndian.Uint64(h.Sum(sum[:0]))
}
