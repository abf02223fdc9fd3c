package mix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"counterlight/internal/crypto/aes"
)

func TestWordBytesRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		w := Word{hi, lo}
		var b [16]byte
		w.Store(b[:])
		return Load(b[:]) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Load and Store share one big-endian layout, Hi's top byte first and
// Lo's bottom byte last, and touch only the first 16 bytes of a
// longer slice.
func TestWordByteOrder(t *testing.T) {
	w := Word{0x0102030405060708, 0x090a0b0c0d0e0f10}
	want := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	buf := make([]byte, 20)
	for i := range buf {
		buf[i] = 0xee
	}
	w.Store(buf[2:])
	if [16]byte(buf[2:18]) != want || buf[0] != 0xee || buf[1] != 0xee || buf[18] != 0xee || buf[19] != 0xee {
		t.Errorf("Store wrote %x", buf)
	}
	if got := Load(buf[2:]); got != w {
		t.Errorf("Load = %+v, want %+v", got, w)
	}
}

// refNonlinear is Nonlinear with its S-box layer run over the word's
// big-endian bytes, as Fig. 15b draws it.
func refNonlinear(counterAES, addrAES Word) Word {
	t := counterAES.RotL(uint(addrAES.Lo & 127)).XOR(addrAES)
	t = t.XOR(t.RotL(29)).XOR(t.RotL(71))
	var tb [16]byte
	t.Store(tb[:])
	for i := range tb {
		tb[i] = SBox(tb[i])
	}
	v := Load(tb[:])
	v = v.XOR(v.RotL(13))
	return v.RotL(uint(addrAES.Hi & 127)).XOR(counterAES)
}

func TestNonlinearMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 10000; i++ {
		c, a := Word{rng.Uint64(), rng.Uint64()}, Word{rng.Uint64(), rng.Uint64()}
		if got, want := Nonlinear(c, a), refNonlinear(c, a); got != want {
			t.Fatalf("Nonlinear(%+v, %+v) = %+v, reference %+v", c, a, got, want)
		}
	}
}

func TestRotL(t *testing.T) {
	w := Word{0x8000000000000000, 0x0000000000000001}
	if got := w.RotL(0); got != w {
		t.Errorf("RotL(0) changed value: %v", got)
	}
	// Bit 127 wraps to bit 0; bit 0 moves to bit 1.
	if got := w.RotL(1); got != (Word{0x0000000000000000, 0x0000000000000003}) {
		t.Errorf("RotL(1) = %+v", got)
	}
	if got := w.RotL(64); got != (Word{0x0000000000000001, 0x8000000000000000}) {
		t.Errorf("RotL(64) = %+v", got)
	}
	if got := w.RotL(128); got != w {
		t.Errorf("RotL(128) != identity: %+v", got)
	}
}

// RotL composes additively: RotL(a).RotL(b) == RotL(a+b).
func TestRotLComposes(t *testing.T) {
	f := func(hi, lo uint64, a, b uint8) bool {
		w := Word{hi, lo}
		return w.RotL(uint(a)).RotL(uint(b)) == w.RotL(uint(a)+uint(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// RotL preserves popcount (it is a permutation of bits).
func TestRotLPreservesBits(t *testing.T) {
	f := func(hi, lo uint64, n uint8) bool {
		w := Word{hi, lo}
		r := w.RotL(uint(n))
		return popcount(w) == popcount(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func popcount(w Word) int {
	n := 0
	for x := w.Hi; x != 0; x &= x - 1 {
		n++
	}
	for x := w.Lo; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Linear must be linear: L(a^b, c) == L(a,c) ^ L(b,c). This is the
// precise weakness the paper calls out in RMCC's combiner.
func TestLinearIsLinear(t *testing.T) {
	f := func(a1h, a1l, a2h, a2l, ch, cl uint64) bool {
		a1, a2, c := Word{a1h, a1l}, Word{a2h, a2l}, Word{ch, cl}
		left := Linear(a1.XOR(a2), c)
		right := Linear(a1, c).XOR(Linear(a2, c))
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Nonlinear must NOT be linear. We verify that the linearity relation
// fails for essentially all random triples.
func TestNonlinearIsNotLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	violations := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		a1 := Word{rng.Uint64(), rng.Uint64()}
		a2 := Word{rng.Uint64(), rng.Uint64()}
		c := Word{rng.Uint64(), rng.Uint64()}
		left := Nonlinear(c, a1.XOR(a2))
		right := Nonlinear(c, a1).XOR(Nonlinear(c, a2))
		if left != right {
			violations++
		}
	}
	if violations < trials-1 {
		t.Errorf("Nonlinear behaved linearly in %d/%d trials", trials-violations, trials)
	}
}

// Nonlinear must be deterministic and depend on both inputs.
func TestNonlinearDependsOnBothInputs(t *testing.T) {
	c := Word{1, 2}
	a := Word{3, 4}
	base := Nonlinear(c, a)
	if Nonlinear(c, a) != base {
		t.Error("not deterministic")
	}
	if Nonlinear(Word{1, 3}, a) == base {
		t.Error("ignores counter input")
	}
	if Nonlinear(c, Word{3, 5}) == base {
		t.Error("ignores address input")
	}
}

// Avalanche: flipping one input bit of Nonlinear should flip many
// output bits on average (diffusion via barrel shift + S-box).
func TestNonlinearAvalanche(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	totalDiff := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		c := Word{rng.Uint64(), rng.Uint64()}
		a := Word{rng.Uint64(), rng.Uint64()}
		base := Nonlinear(c, a)
		bit := uint(rng.Intn(128))
		c2 := c
		if bit < 64 {
			c2.Lo ^= 1 << bit
		} else {
			c2.Hi ^= 1 << (bit - 64)
		}
		totalDiff += popcount(base.XOR(Nonlinear(c2, a)))
	}
	avg := float64(totalDiff) / trials
	// The single S-box layer gives partial avalanche; require a
	// meaningful spread, not cryptographic perfection.
	if avg < 8 {
		t.Errorf("average output flip = %.1f bits, want >= 8", avg)
	}
}

// The combiner must be invertible given the counter input is known
// only through AES — but for a fixed counter-AES value, different
// addresses must give different OTPs (no OTP reuse across addresses).
func TestNonlinearNoOTPCollisions(t *testing.T) {
	c := Word{0xdeadbeef, 0xcafebabe}
	seen := map[Word]uint64{}
	for addr := uint64(0); addr < 2000; addr++ {
		a := Word{addr * 0x9e3779b97f4a7c15, addr}
		otp := Nonlinear(c, a)
		if prev, ok := seen[otp]; ok {
			t.Fatalf("OTP collision between addr inputs %d and %d", prev, addr)
		}
		seen[otp] = addr
	}
}

func TestSBoxMatchesAES(t *testing.T) {
	for i := 0; i < 256; i++ {
		if SBox(byte(i)) != aes.SBox(byte(i)) {
			t.Fatalf("SBox(%#x) mismatch", i)
		}
	}
	if SBox(0) != 0x63 {
		t.Errorf("SBox(0) = %#x, want 0x63", SBox(0))
	}
}

func TestLinearKnownValues(t *testing.T) {
	// Multiplying by 1 (lo bit set) returns the counter word.
	c := Word{0x0123456789abcdef, 0xfedcba9876543210}
	if got := Linear(c, Word{0, 1}); got != c {
		t.Errorf("Linear(c, 1) = %+v, want %+v", got, c)
	}
	// Multiplying by 2 shifts left by one (mod 2^128 truncation).
	want := Word{c.Hi<<1 | c.Lo>>63, c.Lo << 1}
	if got := Linear(c, Word{0, 2}); got != want {
		t.Errorf("Linear(c, 2) = %+v, want %+v", got, want)
	}
	// Multiplying by 0 gives 0.
	if got := Linear(c, Word{0, 0}); got != (Word{}) {
		t.Errorf("Linear(c, 0) = %+v, want zero", got)
	}
}

// refLinear is the bit-serial 128x128 carry-less multiply, truncated
// to 128 bits, that Linear is pinned against.
func refLinear(counterAES, addrAES Word) Word {
	var hi, lo uint64
	shiftedHi, shiftedLo := counterAES.Hi, counterAES.Lo
	mulBit := func(bit uint64) {
		if bit != 0 {
			hi ^= shiftedHi
			lo ^= shiftedLo
		}
		// shift multiplicand left by one within 128 bits
		shiftedHi = shiftedHi<<1 | shiftedLo>>63
		shiftedLo <<= 1
	}
	for i := 0; i < 64; i++ {
		mulBit(addrAES.Lo >> i & 1)
	}
	for i := 0; i < 64; i++ {
		mulBit(addrAES.Hi >> i & 1)
	}
	return Word{hi, lo}
}

// Linear must be bit-exact with the bit-serial reference on seeded
// random words and on the all-ones and single-top-bit edges.
func TestLinearMatchesReference(t *testing.T) {
	edges := []Word{{}, {0, 1}, {1 << 63, 0}, {0, 1 << 63}, {^uint64(0), ^uint64(0)}}
	for _, c := range edges {
		for _, a := range edges {
			if got, want := Linear(c, a), refLinear(c, a); got != want {
				t.Errorf("Linear(%+v, %+v) = %+v, reference %+v", c, a, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 10000; i++ {
		c := Word{rng.Uint64(), rng.Uint64()}
		a := Word{rng.Uint64(), rng.Uint64()}
		if got, want := Linear(c, a), refLinear(c, a); got != want {
			t.Fatalf("Linear(%+v, %+v) = %+v, reference %+v", c, a, got, want)
		}
	}
}

func BenchmarkLinear(b *testing.B) {
	c := Word{0x0123456789abcdef, 0xfedcba9876543210}
	a := Word{0x1111111111111111, 0x2222222222222222}
	for i := 0; i < b.N; i++ {
		c = Linear(c, a)
	}
	_ = c
}

func BenchmarkNonlinear(b *testing.B) {
	c := Word{0x0123456789abcdef, 0xfedcba9876543210}
	a := Word{0x1111111111111111, 0x2222222222222222}
	for i := 0; i < b.N; i++ {
		c = Nonlinear(c, a)
	}
	_ = c
}
