// Package gf implements carry-less multiplication and arithmetic in
// GF(2^64), used by the counter-mode MAC construction.
//
// Under counter mode (paper §II-B, after SGX1's MEE), each block's MAC
// is the bitwise XOR of a truncated one-time pad with a truncated
// Galois-field dot product of the plaintext words and secret keys:
//
//	MAC = trunc(OTP) ⊕ Σ_i (D_i ⊗ K_i)   over GF(2^64)
//
// This keeps the MAC unforgeable without knowing the key while letting
// the expensive AES part (the OTP) be computed from the counter alone.
//
// The multiply is constant-time: it runs the same instructions for
// every operand, with no branch and no table lookup on operand bits,
// because one operand is always a secret MAC key.
package gf

import "math/bits"

// Masks selecting every fourth bit, starting at bits 0, 1, 2 and 3.
const (
	m0 = 0x1111111111111111
	m1 = 0x2222222222222222
	m2 = 0x4444444444444444
	m3 = 0x8888888888888888
)

// bmul64 returns the low 64 bits of the carry-less product of x and y
// (BearSSL's bmul64, bearssl.org/constanttime.html). Each operand is
// split into four quarters holding every fourth bit, so an integer
// multiply of two quarters sums at most 15 partial products into any
// bit below 60: its carries stay inside the 4-bit hole below the next
// bit of the same quarter, and the product's parity bits are the
// carry-less product. The top positions' carries leave the 64-bit word.
func bmul64(x, y uint64) uint64 {
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&m0 | z1&m1 | z2&m2 | z3&m3
}

// ClMul64 returns the 128-bit carry-less product of a and b as
// (hi, lo). The high half is the low half of the product of the
// bit-reversed operands, reversed back: bit-reversal maps product bit
// k to bit 126-k.
func ClMul64(a, b uint64) (hi, lo uint64) {
	lo = bmul64(a, b)
	hi = bits.Reverse64(bmul64(bits.Reverse64(a), bits.Reverse64(b))) >> 1
	return hi, lo
}

// reduce folds a 128-bit carry-less product modulo
// x^64 + x^4 + x^3 + x + 1. x^64 ≡ x^4 + x^3 + x + 1, so hi folds into
// lo as hi ^ hi<<1 ^ hi<<3 ^ hi<<4. The shifts carry at most 4 bits
// past x^63, and folding those once more cannot carry again.
func reduce(hi, lo uint64) uint64 {
	c := hi>>63 ^ hi>>61 ^ hi>>60
	lo ^= hi ^ hi<<1 ^ hi<<3 ^ hi<<4
	return lo ^ c ^ c<<1 ^ c<<3 ^ c<<4
}

// Mul multiplies two elements of GF(2^64) modulo
// x^64 + x^4 + x^3 + x + 1.
func Mul(a, b uint64) uint64 {
	return reduce(ClMul64(a, b))
}

// Pow raises a to the k-th power in GF(2^64) by square-and-multiply.
func Pow(a uint64, k uint64) uint64 {
	result := uint64(1)
	base := a
	for k > 0 {
		if k&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		k >>= 1
	}
	return result
}

// Keys is the key vector of a GF(2^64) dot product (paper §IV-D:
// "the eight products summed together ... can be calculated in
// parallel"), with each key's bit reversal computed once, at
// construction, for the high halves of its products.
type Keys struct {
	k, rev []uint64
}

// NewKeys builds a key vector over a copy of keys.
func NewKeys(keys []uint64) *Keys {
	ks := &Keys{k: append([]uint64(nil), keys...), rev: make([]uint64, len(keys))}
	for i, k := range keys {
		ks.rev[i] = bits.Reverse64(k)
	}
	return ks
}

// Partial is an unreduced dot product: the XOR of the low halves of
// its carry-less products, and of the bit-reversed high halves.
// Carry-less products and bit reversal are both linear over XOR, so
// partials of disjoint terms add with Add and reduce once, to exactly
// the value each term reduced on its own would sum to.
type Partial struct {
	lo, hiRev uint64
}

// Dot returns the partial Σ_i data[i] ⊗ keys[i] over the first
// len(data) keys. It panics when data is longer than the key vector.
func (ks *Keys) Dot(data []uint64) Partial {
	if len(data) > len(ks.k) {
		panic("gf: dot product longer than its key vector")
	}
	var p Partial
	for i, d := range data {
		p.lo ^= bmul64(d, ks.k[i])
		p.hiRev ^= bmul64(bits.Reverse64(d), ks.rev[i])
	}
	return p
}

// Term returns the partial of the single product d ⊗ keys[i].
func (ks *Keys) Term(i int, d uint64) Partial {
	return Partial{lo: bmul64(d, ks.k[i]), hiRev: bmul64(bits.Reverse64(d), ks.rev[i])}
}

// Add returns the partial of p's and q's terms together.
func (p Partial) Add(q Partial) Partial {
	return Partial{lo: p.lo ^ q.lo, hiRev: p.hiRev ^ q.hiRev}
}

// Sum reduces the partial to its element of GF(2^64).
func (p Partial) Sum() uint64 {
	return reduce(bits.Reverse64(p.hiRev)>>1, p.lo)
}

// KeySchedule derives n MAC keys from a single secret as successive
// powers k, k^2, k^3, ... (a standard universal-hash key schedule; any
// nonzero secret yields nonzero keys).
func KeySchedule(secret uint64, n int) []uint64 {
	if secret == 0 {
		secret = 1 // zero would make the MAC ignore all data words
	}
	keys := make([]uint64, n)
	cur := uint64(1)
	for i := 0; i < n; i++ {
		cur = Mul(cur, secret)
		keys[i] = cur
	}
	return keys
}
