package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// encryptBlock and decryptBlock are array-value conveniences for the
// property tests.
func encryptBlock(c *Cipher, src [16]byte) [16]byte {
	var out [16]byte
	c.Encrypt(out[:], src[:])
	return out
}

func decryptBlock(c *Cipher, src [16]byte) [16]byte {
	var out [16]byte
	c.Decrypt(out[:], src[:])
	return out
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C known-answer vectors.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct{ name, key, plain, cipher string }{
		{"AES-128", "000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"AES-192", "000102030405060708090a0b0c0d0e0f1011121314151617",
			"00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"AES-256", "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(unhex(t, tc.key))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 16)
			c.Encrypt(got, unhex(t, tc.plain))
			if want := unhex(t, tc.cipher); !bytes.Equal(got, want) {
				t.Errorf("encrypt = %x, want %x", got, want)
			}
			back := make([]byte, 16)
			c.Decrypt(back, got)
			if want := unhex(t, tc.plain); !bytes.Equal(back, want) {
				t.Errorf("decrypt = %x, want %x", back, want)
			}
		})
	}
}

// FIPS-197 Appendix B example (AES-128 with a different key).
func TestAppendixB(t *testing.T) {
	c, err := New(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, unhex(t, "3243f6a8885a308d313198a2e0370734"))
	if want := unhex(t, "3925841d02dc09fbdc118597196a0b32"); !bytes.Equal(got, want) {
		t.Errorf("encrypt = %x, want %x", got, want)
	}
}

func TestInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 23, 25, 31, 33, 64} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error, got nil", n)
		}
	}
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		c, err := New(make([]byte, tc.keyLen))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Rounds(); got != tc.rounds {
			t.Errorf("Rounds(keyLen=%d) = %d, want %d", tc.keyLen, got, tc.rounds)
		}
	}
}

// TestAgainstStdlib cross-checks encryption of random blocks under
// random keys against crypto/aes for all three key sizes.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{16, 24, 32} {
		for trial := 0; trial < 50; trial++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			ours, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			src := make([]byte, 16)
			rng.Read(src)
			got := make([]byte, 16)
			want := make([]byte, 16)
			ours.Encrypt(got, src)
			ref.Encrypt(want, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("keyLen=%d trial=%d: encrypt mismatch: got %x want %x", keyLen, trial, got, want)
			}
			back := make([]byte, 16)
			ours.Decrypt(back, got)
			if !bytes.Equal(back, src) {
				t.Fatalf("keyLen=%d trial=%d: roundtrip mismatch", keyLen, trial)
			}
		}
	}
}

// Property: Decrypt(Encrypt(x)) == x for arbitrary keys and blocks.
func TestQuickRoundTrip(t *testing.T) {
	f := func(key [32]byte, block [16]byte, sizeSel uint8) bool {
		keyLen := []int{16, 24, 32}[int(sizeSel)%3]
		c, err := New(key[:keyLen])
		if err != nil {
			return false
		}
		return decryptBlock(c, encryptBlock(c, block)) == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encryption is a bijection — distinct plaintexts map to
// distinct ciphertexts under the same key.
func TestQuickInjective(t *testing.T) {
	c, err := New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b [16]byte) bool {
		if a == b {
			return true
		}
		return encryptBlock(c, a) != encryptBlock(c, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single plaintext bit changes the ciphertext
// (and by avalanche, changes many bits — we check at least 30 of 128).
func TestAvalanche(t *testing.T) {
	c, err := New(unhex(t, "000102030405060708090a0b0c0d0e0f"))
	if err != nil {
		t.Fatal(err)
	}
	var base [16]byte
	rng := rand.New(rand.NewSource(7))
	rng.Read(base[:])
	ct0 := encryptBlock(c, base)
	for bit := 0; bit < 128; bit++ {
		mod := base
		mod[bit/8] ^= 1 << (bit % 8)
		ct1 := encryptBlock(c, mod)
		diff := 0
		for i := range ct0 {
			x := ct0[i] ^ ct1[i]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff < 30 {
			t.Errorf("bit %d: only %d ciphertext bits flipped, want >=30", bit, diff)
		}
	}
}

func TestSboxIsPermutation(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		if seen[sbox[i]] {
			t.Fatalf("sbox value %#x repeated", sbox[i])
		}
		seen[sbox[i]] = true
		if invSbox[sbox[i]] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, invSbox[sbox[i]])
		}
	}
	// Spot-check the canonical corner entries.
	if sbox[0x00] != 0x63 || sbox[0x01] != 0x7c || sbox[0xff] != 0x16 {
		t.Errorf("sbox corners wrong: %#x %#x %#x", sbox[0], sbox[1], sbox[0xff])
	}
}

func TestMulGF(t *testing.T) {
	// FIPS-197 §4.2 example: {57} x {83} = {c1}.
	if got := mulGF(0x57, 0x83); got != 0xc1 {
		t.Errorf("mulGF(0x57,0x83) = %#x, want 0xc1", got)
	}
	// Identity and zero.
	for i := 0; i < 256; i++ {
		if mulGF(byte(i), 1) != byte(i) || mulGF(byte(i), 0) != 0 {
			t.Fatalf("mulGF identity/zero failed at %d", i)
		}
	}
}

func TestEncryptPanicsOnShortBlock(t *testing.T) {
	c, _ := New(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Error("want panic on short block")
		}
	}()
	c.Encrypt(make([]byte, 8), make([]byte, 8))
}

func BenchmarkEncryptAES128(b *testing.B) {
	c, _ := New(make([]byte, 16))
	var blk [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		blk = encryptBlock(c, blk)
	}
	_ = blk
}

func BenchmarkEncryptAES256(b *testing.B) {
	c, _ := New(make([]byte, 32))
	var blk [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		blk = encryptBlock(c, blk)
	}
	_ = blk
}
