// Package aes implements the Advanced Encryption Standard (FIPS-197)
// from first principles: the S-box is derived from the GF(2^8) inverse
// and affine transform, and the cipher runs the textbook round
// structure (SubBytes, ShiftRows, MixColumns, AddRoundKey).
//
// This textbook cipher is the reference that the engines' production
// AES, the standard library's crypto/aes, is checked against: the
// FIPS-197 vectors and a crypto/aes cross-check pin it, and the check
// harness recomputes every engine result through it. It is a
// functional model, not a constant-time production cipher.
package aes

import "fmt"

// BlockSize is the AES block size in bytes (128 bits).
const BlockSize = 16

// sbox and invSbox are the AES substitution tables, computed in init
// from the multiplicative inverse in GF(2^8) followed by the FIPS-197
// affine transform.
var (
	sbox    [256]byte
	invSbox [256]byte
)

func init() {
	// Build log/antilog tables for GF(2^8) with the AES polynomial
	// x^8 + x^4 + x^3 + x + 1 (0x11b), generator 3.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		log[x] = byte(i)
		// multiply x by generator 3 = x * 2 + x
		x = mulGF(x, 3)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return exp[(255-int(log[b]))%255]
	}
	rotl8 := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for i := 0; i < 256; i++ {
		q := inv(byte(i))
		s := q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

// SBox applies the AES S-box to one byte. It is exported for the
// nonlinear OTP combining logic (internal/crypto/mix) and for the
// algebraic attack model, which need the exact substitution circuit.
func SBox(b byte) byte { return sbox[b] }

// InvSBox applies the inverse AES S-box to one byte.
func InvSBox(b byte) byte { return invSbox[b] }

// mulGF multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1.
func mulGF(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// Cipher is an AES block cipher with an expanded key schedule.
type Cipher struct {
	enc    []uint32 // round keys, 4*(rounds+1) words
	rounds int
}

// New creates an AES cipher for a 16, 24, or 32 byte key
// (AES-128, AES-192, AES-256 respectively).
func New(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("aes: invalid key size %d", len(key))
	}
	c := &Cipher{rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// Rounds reports the number of rounds (10, 12, or 14).
func (c *Cipher) Rounds() int { return c.rounds }

func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	w := make([]uint32, n)
	for i := 0; i < nk; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1) << 24
	for i := nk; i < n; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon
			rcon = uint32(mulGF(byte(rcon>>24), 2)) << 24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	c.enc = w
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// state is the AES 4x4 byte state in column-major order
// (state[4*c+r] = row r, column c), matching FIPS-197.
type state [16]byte

func (s *state) addRoundKey(rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c+0] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

func (s *state) subBytes() {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func (s *state) invSubBytes() {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

func (s *state) shiftRows() {
	// Row r is shifted left by r positions.
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func (s *state) invShiftRows() {
	s[1], s[5], s[9], s[13] = s[13], s[1], s[5], s[9]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[7], s[11], s[15], s[3]
}

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mulGF(a0, 2) ^ mulGF(a1, 3) ^ a2 ^ a3
		s[4*c+1] = a0 ^ mulGF(a1, 2) ^ mulGF(a2, 3) ^ a3
		s[4*c+2] = a0 ^ a1 ^ mulGF(a2, 2) ^ mulGF(a3, 3)
		s[4*c+3] = mulGF(a0, 3) ^ a1 ^ a2 ^ mulGF(a3, 2)
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mulGF(a0, 14) ^ mulGF(a1, 11) ^ mulGF(a2, 13) ^ mulGF(a3, 9)
		s[4*c+1] = mulGF(a0, 9) ^ mulGF(a1, 14) ^ mulGF(a2, 11) ^ mulGF(a3, 13)
		s[4*c+2] = mulGF(a0, 13) ^ mulGF(a1, 9) ^ mulGF(a2, 14) ^ mulGF(a3, 11)
		s[4*c+3] = mulGF(a0, 11) ^ mulGF(a1, 13) ^ mulGF(a2, 9) ^ mulGF(a3, 14)
	}
}

// BlockSize returns the AES block size, so *Cipher is a
// crypto/cipher.Block.
func (c *Cipher) BlockSize() int { return BlockSize }

// Encrypt encrypts one 16-byte block with the textbook round
// structure; dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var s state
	copy(s[:], src[:BlockSize])
	s.addRoundKey(c.enc[0:4])
	for r := 1; r < c.rounds; r++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.enc[4*r : 4*r+4])
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(c.enc[4*c.rounds : 4*c.rounds+4])
	copy(dst[:BlockSize], s[:])
}

// Decrypt decrypts one 16-byte block with the straightforward inverse
// cipher (FIPS-197 §5.3), applying the encryption round keys in
// reverse order; dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	var s state
	copy(s[:], src[:BlockSize])
	s.addRoundKey(c.enc[4*c.rounds : 4*c.rounds+4])
	for r := c.rounds - 1; r >= 1; r-- {
		s.invShiftRows()
		s.invSubBytes()
		s.addRoundKey(c.enc[4*r : 4*r+4])
		s.invMixColumns()
	}
	s.invShiftRows()
	s.invSubBytes()
	s.addRoundKey(c.enc[0:4])
	copy(dst[:BlockSize], s[:])
}
