package gf

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// refClMul is the bit-serial carry-less multiply ClMul64 is pinned
// against: shift-and-XOR over the 64 bits of b.
func refClMul(a, b uint64) (hi, lo uint64) {
	for i := 0; i < 64; i++ {
		if b&(1<<i) != 0 {
			lo ^= a << i
			if i != 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return hi, lo
}

func TestClMul64Basics(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{2, 2, 0, 4},
		{0xffffffffffffffff, 1, 0, 0xffffffffffffffff},
		{1 << 63, 2, 1, 0},
		{1 << 63, 1 << 63, 1 << 62, 0},
	}
	for _, c := range cases {
		hi, lo := ClMul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("ClMul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
		if hi, lo := refClMul(c.a, c.b); hi != c.hi || lo != c.lo {
			t.Errorf("refClMul(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// The constant-time kernel must agree with the bit-serial reference
// on every single-bit pair (each partial product alone), on dense
// operands (the most partial products per bit, where a carry would
// leak between quarters), and on 10k seeded pairs.
func TestClMul64MatchesReference(t *testing.T) {
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := ClMul64(a, b)
		if rh, rl := refClMul(a, b); hi != rh || lo != rl {
			t.Fatalf("ClMul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, rh, rl)
		}
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			check(1<<i, 1<<j)
		}
	}
	dense := []uint64{^uint64(0), m0, m1, m2, m3, m0 | m2, m1 | m3, ^uint64(0) >> 1, ^uint64(1)}
	for _, a := range dense {
		for _, b := range dense {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		check(rng.Uint64(), rng.Uint64())
	}
}

func TestClMulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		h1, l1 := ClMul64(a, b)
		h2, l2 := ClMul64(b, a)
		return h1 == h2 && l1 == l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Carry-less multiplication distributes over XOR.
func TestClMulDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		h1, l1 := ClMul64(a, b^c)
		h2, l2 := ClMul64(a, b)
		h3, l3 := ClMul64(a, c)
		return h1 == (h2^h3) && l1 == (l2^l3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refMul is the bit-serial reference Mul is pinned against: the full
// carry-less product, then two more carry-less multiplications by the
// low half of the reduction polynomial (x^64 ≡ x^4 + x^3 + x + 1) —
// folding hi once can carry out at most 4 bits, so fold twice.
func refMul(a, b uint64) uint64 {
	const reductionPoly = 0x1b
	hi, lo := refClMul(a, b)
	h2, l2 := refClMul(hi, reductionPoly)
	_, l3 := refClMul(h2, reductionPoly)
	return lo ^ l2 ^ l3
}

// Mul's kernel and shift reduction must be bit-exact with the
// reference: on the edge values, on 10k seeded pairs, and on
// hard-coded products (so a reference and an implementation that are
// both wrong cannot agree).
func TestMulMatchesReference(t *testing.T) {
	vectors := []struct{ a, b, want uint64 }{
		{0x123456789abcdef0, 0x9e3779b97f4a7c15, 0xce3f7d19f3317af8},
		{^uint64(0), ^uint64(0), 0x5555555555555513},
		{1 << 63, 0xfedcba9876543210, 0x8c25d976268f73b4},
	}
	for _, v := range vectors {
		if got := Mul(v.a, v.b); got != v.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", v.a, v.b, got, v.want)
		}
		if got := refMul(v.a, v.b); got != v.want {
			t.Errorf("refMul(%#x, %#x) = %#x, want %#x", v.a, v.b, got, v.want)
		}
	}
	edges := []uint64{0, 1, 1 << 63, ^uint64(0)}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := Mul(a, b), refMul(a, b); got != want {
				t.Errorf("Mul(%#x, %#x) = %#x, reference %#x", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := Mul(a, b), refMul(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, reference %#x", a, b, got, want)
		}
	}
}

func TestMulFieldAxioms(t *testing.T) {
	one := func(a uint64) bool { return Mul(a, 1) == a && Mul(1, a) == a }
	if err := quick.Check(one, nil); err != nil {
		t.Error("identity:", err)
	}
	comm := func(a, b uint64) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	assoc := func(a, b, c uint64) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("associativity:", err)
	}
	distr := func(a, b, c uint64) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(distr, nil); err != nil {
		t.Error("distributivity:", err)
	}
	zero := func(a uint64) bool { return Mul(a, 0) == 0 }
	if err := quick.Check(zero, nil); err != nil {
		t.Error("zero:", err)
	}
}

// In a field there are no zero divisors: a,b != 0 => a*b != 0.
func TestMulNoZeroDivisors(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == 0 || b == 0 {
			return true
		}
		return Mul(a, b) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Fermat: a^(2^64-1) == 1 for a != 0, i.e. a^(2^64) == a.
// Pow's exponent is uint64 so we check a^(2^64 - 1) * a == a via
// Pow(a, 2^64-1) == 1.
func TestMulFermat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		a := rng.Uint64()
		if a == 0 {
			continue
		}
		if got := Pow(a, ^uint64(0)); got != 1 {
			t.Fatalf("a^(2^64-1) = %#x, want 1 (a=%#x)", got, a)
		}
	}
}

func TestPow(t *testing.T) {
	if Pow(5, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if Pow(5, 1) != 5 {
		t.Error("a^1 != a")
	}
	if Pow(5, 2) != Mul(5, 5) {
		t.Error("a^2 != a*a")
	}
	if Pow(5, 5) != Mul(Mul(Mul(Mul(5, 5), 5), 5), 5) {
		t.Error("a^5 wrong")
	}
}

func TestDotProduct(t *testing.T) {
	data := []uint64{1, 2, 3}
	keys := []uint64{10, 20, 30}
	want := Mul(1, 10) ^ Mul(2, 20) ^ Mul(3, 30)
	if got := DotProduct(data, keys); got != want {
		t.Errorf("DotProduct = %#x, want %#x", got, want)
	}
}

func TestDotProductPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	DotProduct([]uint64{1}, []uint64{1, 2})
}

// A dot-product MAC with power keys is a polynomial evaluation; it must
// detect any single-word change (no two distinct single-word messages
// collide under a random nonzero key).
func TestDotProductDetectsChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := KeySchedule(rng.Uint64(), 8)
	data := make([]uint64, 8)
	for i := range data {
		data[i] = rng.Uint64()
	}
	base := DotProduct(data, keys)
	for i := 0; i < 8; i++ {
		mod := append([]uint64(nil), data...)
		mod[i] ^= 1 << uint(rng.Intn(64))
		if DotProduct(mod, keys) == base {
			t.Errorf("single-bit change in word %d not detected", i)
		}
	}
}

func TestKeySchedule(t *testing.T) {
	keys := KeySchedule(7, 4)
	if keys[0] != 7 {
		t.Errorf("keys[0] = %#x, want 7", keys[0])
	}
	if keys[1] != Mul(7, 7) {
		t.Error("keys[1] != k^2")
	}
	if keys[3] != Pow(7, 4) {
		t.Error("keys[3] != k^4")
	}
	// Zero secret must still give usable (nonzero) keys.
	for i, k := range KeySchedule(0, 4) {
		if k == 0 {
			t.Errorf("KeySchedule(0)[%d] = 0", i)
		}
	}
}

// FuzzClMul64 pins ClMul64, Mul and DotProduct to the bit-serial
// reference: the product of (a, b), and the dot product whose first
// term is (a, b) and whose further (data, key) pairs are the 64-bit
// words packed in rest.
func FuzzClMul64(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(^uint64(0), ^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(1)<<63, uint64(0x1b), []byte("0123456789abcdef"))
	f.Add(uint64(0x123456789abcdef0), uint64(0x9e3779b97f4a7c15), make([]byte, 9*16))
	f.Fuzz(func(t *testing.T, a, b uint64, rest []byte) {
		hi, lo := ClMul64(a, b)
		if rh, rl := refClMul(a, b); hi != rh || lo != rl {
			t.Fatalf("ClMul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, rh, rl)
		}
		want := refMul(a, b)
		if got := Mul(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, reference %#x", a, b, got, want)
		}
		data, keys := []uint64{a}, []uint64{b}
		for ; len(rest) >= 16 && len(data) < 16; rest = rest[16:] {
			d, k := binary.LittleEndian.Uint64(rest), binary.LittleEndian.Uint64(rest[8:])
			data, keys = append(data, d), append(keys, k)
			want ^= refMul(d, k)
		}
		if got := DotProduct(data, keys); got != want {
			t.Fatalf("DotProduct(%#x, %#x) = %#x, reference %#x", data, keys, got, want)
		}
	})
}

// The sparse-key and dense-key variants of each benchmark must read
// within noise of each other: the kernel's timing does not depend on
// the key.
func BenchmarkMul(b *testing.B) {
	for _, k := range []struct {
		name string
		key  uint64
	}{{"sparse", 0x1b}, {"dense", ^uint64(0)}} {
		b.Run(k.name, func(b *testing.B) {
			x := uint64(0x123456789abcdef0)
			for i := 0; i < b.N; i++ {
				x = Mul(x, k.key)
			}
			sink = x
		})
	}
}

func BenchmarkDotProduct8(b *testing.B) {
	ones := make([]uint64, 8)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for _, k := range []struct {
		name string
		keys []uint64
	}{{"schedule", KeySchedule(12345, 8)}, {"ones", ones}} {
		b.Run(k.name, func(b *testing.B) {
			data := make([]uint64, 8)
			for i := range data {
				data[i] = uint64(i) * 0x9e3779b97f4a7c15
			}
			for i := 0; i < b.N; i++ {
				data[0] = DotProduct(data, k.keys)
			}
			sink = data[0]
		})
	}
}

var sink uint64
