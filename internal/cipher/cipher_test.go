package cipher

import (
	"math/rand"
	"testing"
	"testing/quick"

	"counterlight/internal/crypto/mix"
)

func testKeys(t *testing.T) (*Counterless, *CounterMode) {
	t.Helper()
	cl, err := NewCounterless(make([]byte, 16), make([]byte, 16), []byte("mac-key"))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCounterMode(make([]byte, 16), 0x1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl, cm
}

func randBlock(rng *rand.Rand) Block {
	var b Block
	rng.Read(b[:])
	return b
}

func TestBlockWordAccessors(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = byte(i)
	}
	w := b.Word(2)
	if w[0] != 32 || w[15] != 47 {
		t.Errorf("Word(2) = %v", w)
	}
	var w2 [16]byte
	for i := range w2 {
		w2[i] = 0xAA
	}
	b.SetWord(2, w2)
	if b[32] != 0xAA || b[47] != 0xAA || b[31] != 31 || b[48] != 48 {
		t.Error("SetWord wrote wrong range")
	}
	words := b.Words64()
	if words[0] != 0x0706050403020100 {
		t.Errorf("Words64[0] = %#x", words[0])
	}
}

func TestXOR(t *testing.T) {
	f := func(a, b Block) bool {
		c := a.XOR(b)
		return c.XOR(b) == a && c.XOR(a) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCounterlessRoundTrip(t *testing.T) {
	cl, _ := testKeys(t)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		addr := uint64(rng.Intn(1<<30)) &^ 63
		plain := randBlock(rng)
		ct := cl.Encrypt(addr, plain)
		if ct == plain {
			t.Fatal("ciphertext equals plaintext")
		}
		if got := cl.Decrypt(addr, ct); got != plain {
			t.Fatalf("round trip failed at addr %#x", addr)
		}
	}
}

// Same plaintext at different addresses must produce different
// ciphertexts (the address tweak).
func TestCounterlessAddressTweak(t *testing.T) {
	cl, _ := testKeys(t)
	var plain Block
	c1 := cl.Encrypt(0, plain)
	c2 := cl.Encrypt(64, plain)
	if c1 == c2 {
		t.Error("ciphertext identical across addresses")
	}
}

// Counterless is deterministic per (addr, data): writing the same data
// to the same address yields the same ciphertext. This is exactly the
// property enabling the ciphertext side-channel (§IV-D) and why
// counterless mode needs per-VM keys.
func TestCounterlessDeterministic(t *testing.T) {
	cl, _ := testKeys(t)
	var plain Block
	plain[0] = 42
	if cl.Encrypt(128, plain) != cl.Encrypt(128, plain) {
		t.Error("counterless encryption not deterministic")
	}
}

// Within a block, equal words must encrypt differently (the α^j word
// tweak of Fig. 2a).
func TestCounterlessWordTweak(t *testing.T) {
	cl, _ := testKeys(t)
	var plain Block // all four words identical (zero)
	ct := cl.Encrypt(0, plain)
	for j := 1; j < WordsPerBlock; j++ {
		if ct.Word(j) == ct.Word(0) {
			t.Errorf("word %d ciphertext equals word 0", j)
		}
	}
}

func TestCounterlessMAC(t *testing.T) {
	cl, _ := testKeys(t)
	rng := rand.New(rand.NewSource(11))
	ct := randBlock(rng)
	m := cl.MAC(4096, ct, 77)
	if cl.MAC(4096, ct, 77) != m {
		t.Error("MAC not deterministic")
	}
	if cl.MAC(4160, ct, 77) == m {
		t.Error("MAC ignores address")
	}
	if cl.MAC(4096, ct, 78) == m {
		t.Error("MAC ignores EncryptionMetadata")
	}
	ct2 := ct
	ct2[0] ^= 1
	if cl.MAC(4096, ct2, 77) == m {
		t.Error("MAC ignores data")
	}
}

func TestNewCounterlessErrors(t *testing.T) {
	if _, err := NewCounterless(make([]byte, 5), make([]byte, 16), []byte("k")); err == nil {
		t.Error("want error for bad data key")
	}
	if _, err := NewCounterless(make([]byte, 16), make([]byte, 5), []byte("k")); err == nil {
		t.Error("want error for bad tweak key")
	}
	if _, err := NewCounterless(make([]byte, 16), make([]byte, 16), nil); err == nil {
		t.Error("want error for empty MAC key")
	}
}

func TestCounterModeRoundTrip(t *testing.T) {
	_, cm := testKeys(t)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		addr := uint64(rng.Intn(1<<30)) &^ 63
		counter := rng.Uint64()
		plain := randBlock(rng)
		ct := cm.Encrypt(counter, addr, plain)
		if got := cm.Decrypt(counter, addr, ct); got != plain {
			t.Fatalf("round trip failed (addr=%#x ctr=%d)", addr, counter)
		}
	}
}

// The nonce property: the same data written with different counters
// must yield different ciphertexts. This is why counters may never be
// reused (paper §II-B).
func TestCounterModeNoncePrevention(t *testing.T) {
	_, cm := testKeys(t)
	var plain Block
	c1 := cm.Encrypt(1, 0, plain)
	c2 := cm.Encrypt(2, 0, plain)
	if c1 == c2 {
		t.Error("different counters gave identical ciphertext")
	}
}

// Decrypting with the wrong counter must give garbage, not plaintext.
func TestCounterModeWrongCounter(t *testing.T) {
	_, cm := testKeys(t)
	rng := rand.New(rand.NewSource(13))
	plain := randBlock(rng)
	ct := cm.Encrypt(7, 4096, plain)
	if cm.Decrypt(8, 4096, ct) == plain {
		t.Error("wrong counter still decrypted correctly")
	}
}

// The OTP weakness the paper describes in Fig. 10: XOR of two
// ciphertexts under the same (counter, addr) equals XOR of the
// plaintexts. Our engine must reproduce this (it is inherent to CTR),
// because the replay attack analysis depends on it.
func TestCounterModeOTPXORProperty(t *testing.T) {
	_, cm := testKeys(t)
	rng := rand.New(rand.NewSource(14))
	p1, p2 := randBlock(rng), randBlock(rng)
	c1 := cm.Encrypt(5, 0, p1)
	c2 := cm.Encrypt(5, 0, p2)
	if c1.XOR(c2) != p1.XOR(p2) {
		t.Error("CTR XOR property violated")
	}
}

func TestCounterModeMAC(t *testing.T) {
	_, cm := testKeys(t)
	rng := rand.New(rand.NewSource(15))
	plain := randBlock(rng)
	m := cm.MAC(9, 4096, plain, 9)
	if cm.MAC(9, 4096, plain, 9) != m {
		t.Error("MAC not deterministic")
	}
	if cm.MAC(10, 4096, plain, 9) == m {
		t.Error("MAC ignores counter")
	}
	if cm.MAC(9, 8192, plain, 9) == m {
		t.Error("MAC ignores address")
	}
	if cm.MAC(9, 4096, plain, 10) == m {
		t.Error("MAC ignores EncryptionMetadata")
	}
	p2 := plain
	p2[63] ^= 0x80
	if cm.MAC(9, 4096, p2, 9) == m {
		t.Error("MAC ignores data")
	}
}

// The bit-flipping weakness of counter mode (§II-B): flipping bit k of
// the ciphertext flips exactly bit k of the decrypted plaintext. The
// MAC must catch it, but the cipher itself must exhibit the property.
func TestCounterModeBitFlipping(t *testing.T) {
	_, cm := testKeys(t)
	rng := rand.New(rand.NewSource(16))
	plain := randBlock(rng)
	ct := cm.Encrypt(3, 0, plain)
	ct[17] ^= 0x10
	dec := cm.Decrypt(3, 0, ct)
	want := plain
	want[17] ^= 0x10
	if dec != want {
		t.Error("bit-flip did not map 1:1 onto plaintext")
	}
}

// Counterless must NOT have the bit-flipping property: flipping one
// ciphertext bit must scramble the containing word.
func TestCounterlessBitFlipScrambles(t *testing.T) {
	cl, _ := testKeys(t)
	rng := rand.New(rand.NewSource(17))
	plain := randBlock(rng)
	ct := cl.Encrypt(0, plain)
	ct[17] ^= 0x10
	dec := cl.Decrypt(0, ct)
	diff := 0
	for i := 16; i < 32; i++ { // word 1 contains byte 17
		x := dec[i] ^ plain[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff < 30 {
		t.Errorf("only %d bits differ in the tampered word, want avalanche (>=30)", diff)
	}
}

// The memoization contract: CounterAES for equal counter values is
// equal regardless of address, so one memoized entry serves millions
// of blocks (paper §I "a single counter value can be simultaneously
// used by many data blocks").
func TestCounterAESIndependentOfAddress(t *testing.T) {
	_, cm := testKeys(t)
	w1 := cm.CounterAES(42)
	w2 := cm.CounterAES(42)
	if w1 != w2 {
		t.Error("CounterAES not deterministic")
	}
	if cm.CounterAES(43) == w1 {
		t.Error("CounterAES ignores counter value")
	}
}

// Counter and address AES domains must not collide: the same numeric
// value as counter and as address must produce different AES results.
func TestDomainSeparation(t *testing.T) {
	_, cm := testKeys(t)
	if cm.CounterAES(1000) == cm.AddrAES(1000) {
		t.Error("counter and address AES domains collide")
	}
}

// Pad must equal the concatenation of the four word OTPs.
func TestPadMatchesOTP(t *testing.T) {
	_, cm := testKeys(t)
	pad := cm.Pad(11, 1<<20)
	for j := 0; j < WordsPerBlock; j++ {
		if pad.Word(j) != cm.OTP(11, 1<<20, j).Bytes() {
			t.Errorf("pad word %d mismatch", j)
		}
	}
}

// Linear combiner variant must still round-trip.
func TestCounterModeLinearCombiner(t *testing.T) {
	cm, err := NewCounterMode(make([]byte, 16), 0x99, mix.Linear)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	plain := randBlock(rng)
	ct := cm.Encrypt(5, 256, plain)
	if cm.Decrypt(5, 256, ct) != plain {
		t.Error("linear-combiner round trip failed")
	}
}

func TestNewCounterModeErrors(t *testing.T) {
	if _, err := NewCounterMode(make([]byte, 7), 1, nil); err == nil {
		t.Error("want error for bad key size")
	}
}

func TestMulAlpha(t *testing.T) {
	// Doubling 1 gives 2; doubling with the top bit set folds 0x87.
	var one [16]byte
	one[0] = 1
	two := mulAlpha(one)
	if two[0] != 2 {
		t.Errorf("mulAlpha(1)[0] = %d", two[0])
	}
	var top [16]byte
	top[15] = 0x80
	red := mulAlpha(top)
	if red[0] != 0x87 {
		t.Errorf("mulAlpha(top)[0] = %#x, want 0x87", red[0])
	}
	for i := 1; i < 16; i++ {
		if red[i] != 0 {
			t.Errorf("mulAlpha(top)[%d] = %#x, want 0", i, red[i])
		}
	}
}

// Property: round trips for arbitrary blocks, addresses, counters.
func TestQuickRoundTrips(t *testing.T) {
	cl, cm := testKeys(t)
	f := func(plain Block, addrRaw, counter uint64) bool {
		addr := addrRaw &^ 63
		if cl.Decrypt(addr, cl.Encrypt(addr, plain)) != plain {
			return false
		}
		return cm.Decrypt(counter, addr, cm.Encrypt(counter, addr, plain)) == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCounterlessDecrypt(b *testing.B) {
	cl, _ := NewCounterless(make([]byte, 16), make([]byte, 16), []byte("k"))
	var blk Block
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		blk = cl.Decrypt(0, blk)
	}
	_ = blk
}

func BenchmarkCounterModeDecrypt(b *testing.B) {
	cm, _ := NewCounterMode(make([]byte, 16), 1, nil)
	var blk Block
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		blk = cm.Decrypt(7, 0, blk)
	}
	_ = blk
}
