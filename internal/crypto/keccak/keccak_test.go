package keccak

import (
	"bytes"
	stdsha3 "crypto/sha3"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refMAC64 is the MAC64 definition spelled out: the little-endian
// first 8 bytes of SHA3-256 over key followed by every part.
func refMAC64(key []byte, parts ...[]byte) uint64 {
	msg := append([]byte(nil), key...)
	for _, p := range parts {
		msg = append(msg, p...)
	}
	d := stdsha3.Sum256(msg)
	return binary.LittleEndian.Uint64(d[:8])
}

// NIST FIPS-202 SHA3-256 known answers, checked through MAC64 with an
// empty key: the MAC is the digest's little-endian 8-byte prefix.
func TestSHA3KnownAnswers(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"256-empty", "", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"256-abc", "abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := binary.LittleEndian.Uint64(fromHex(t, tc.want)[:8])
			if got := MAC64(nil, []byte(tc.in)); got != want {
				t.Errorf("MAC64(nil, %q) = %#x, want %#x", tc.in, got, want)
			}
		})
	}
}

// MAC64 over one part equals the spelled-out definition at every
// length 0..300, which crosses the 136-byte SHA3-256 rate twice
// (135/136/137 and 271/272 sit on the padding edges).
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key := []byte("mac64-stdlib-key")
	for n := 0; n <= 300; n++ {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := MAC64(key, data), refMAC64(key, data); got != want {
			t.Fatalf("len %d: MAC64 = %#x, want %#x", n, got, want)
		}
	}
}

// TestMAC64MatchesHash splits the message into two and three parts at
// several points, including empty parts and splits across the rate
// boundary; the parts must hash as their concatenation.
func TestMAC64MatchesHash(t *testing.T) {
	key := []byte("mac64-lockstep-key")
	for _, n := range []int{0, 1, 8, 63, 119, 135, 136, 137, 271, 272, 300} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 17)
		}
		want := refMAC64(key, data)
		for _, cut := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			if cut < 0 || cut > n { // n-1 and 1 on an empty message
				continue
			}
			if got := MAC64(key, data[:cut], data[cut:]); got != want {
				t.Fatalf("len %d cut %d: MAC64 = %#x, want %#x", n, cut, got, want)
			}
			mid := (cut + n) / 2
			if got := MAC64(key, data[:cut], data[cut:mid], data[mid:]); got != want {
				t.Fatalf("len %d cuts %d,%d: MAC64 = %#x, want %#x", n, cut, mid, got, want)
			}
		}
	}
}

// Feeding a long message as many small parts must equal one part.
func TestIncrementalWrite(t *testing.T) {
	data := make([]byte, 1000)
	rand.New(rand.NewSource(3)).Read(data)
	var parts [][]byte
	for i := 0; i < len(data); i += 17 {
		parts = append(parts, data[i:min(i+17, len(data))])
	}
	key := []byte("incremental")
	if MAC64(key, parts...) != MAC64(key, data) {
		t.Error("MAC64 over 17-byte parts differs from one-shot")
	}
}

// Property: different inputs give different MAC64 values with a key
// (collision would require a 64-bit hash collision in ~200 samples,
// which is effectively impossible).
func TestMAC64Distinct(t *testing.T) {
	key := []byte("0123456789abcdef")
	seen := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		msg := make([]byte, 64)
		rng.Read(msg)
		m := MAC64(key, msg)
		if prev, ok := seen[m]; ok && !bytes.Equal(prev, msg) {
			t.Fatalf("MAC64 collision between distinct messages")
		}
		seen[m] = msg
	}
}

// MAC64 must depend on the key and on every data segment.
func TestMAC64Inputs(t *testing.T) {
	a := MAC64([]byte("key1"), []byte("data"))
	if b := MAC64([]byte("key2"), []byte("data")); a == b {
		t.Error("MAC64 ignores key")
	}
	if b := MAC64([]byte("key1"), []byte("datb")); a == b {
		t.Error("MAC64 ignores data")
	}
	multi := MAC64([]byte("key1"), []byte("da"), []byte("ta"))
	if multi != a {
		t.Error("MAC64 segmentation should not matter")
	}
}

// MAC64 sits on the engine's per-op hot path; it must not allocate.
func TestMAC64NoAllocs(t *testing.T) {
	key := []byte("alloc-key")
	var hdr [12]byte
	var ct [64]byte
	allocs := testing.AllocsPerRun(100, func() {
		MAC64(key, hdr[:], ct[:])
	})
	if allocs != 0 {
		t.Fatalf("MAC64 allocates %.1f times per call, want 0", allocs)
	}
}

var macSink uint64

// BenchmarkMAC64 times the two message shapes ctrblock's nodeMAC
// builds: a counter block (16-byte header + 128 counters, 528 B) and
// a tree node (16-byte header + 8 entries, 48 B).
func BenchmarkMAC64(b *testing.B) {
	key := []byte("ctrblock-integrity-key")
	for _, n := range []int{528, 48} {
		buf := make([]byte, n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for b.Loop() {
				macSink ^= MAC64(key, buf)
			}
		})
	}
}
