package aes

import (
	stdaes "crypto/aes"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestBackendsBitExact drives every registered backend over random
// keys and blocks and requires byte-identical output: FIPS-197 AES is
// AES, whichever implementation computes it.
func TestBackendsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keyLen := range []int{16, 24, 32} {
		for trial := 0; trial < 50; trial++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			ref, err := NewBackend(BackendRef, key)
			if err != nil {
				t.Fatal(err)
			}
			var pt [BlockSize]byte
			rng.Read(pt[:])
			var want [BlockSize]byte
			ref.Encrypt(want[:], pt[:])
			for _, name := range BackendNames() {
				b, err := NewBackend(name, key)
				if err != nil {
					t.Fatalf("NewBackend(%q): %v", name, err)
				}
				var ct [BlockSize]byte
				b.Encrypt(ct[:], pt[:])
				if ct != want {
					t.Fatalf("%s: keyLen=%d Encrypt diverges from ref", name, keyLen)
				}
				var back [BlockSize]byte
				b.Decrypt(back[:], ct[:])
				if back != pt {
					t.Fatalf("%s: keyLen=%d Decrypt does not invert Encrypt", name, keyLen)
				}
			}
		}
	}
}

// TestBackendRegistry pins the registry surface: the two names, the
// default, and loud errors for unknown names (including the retired
// T-table backend) and bad keys.
func TestBackendRegistry(t *testing.T) {
	want := []string{BackendRef, BackendStdlib}
	got := BackendNames()
	if len(got) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", got, want)
		}
	}
	for _, name := range []string{"nope", "ttable"} {
		_, err := NewBackend(name, make([]byte, 16))
		if err == nil || !strings.Contains(err.Error(), "[ref stdlib]") {
			t.Fatalf("NewBackend(%q) error = %v, want one naming [ref stdlib]", name, err)
		}
		err = SetDefaultBackend(name)
		if err == nil || !strings.Contains(err.Error(), "[ref stdlib]") {
			t.Fatalf("SetDefaultBackend(%q) error = %v, want one naming [ref stdlib]", name, err)
		}
	}
	for _, name := range BackendNames() {
		if _, err := NewBackend(name, make([]byte, 7)); err == nil {
			t.Fatalf("%s: 7-byte key did not error", name)
		}
	}
	if os.Getenv("CL_CIPHER") == "" && DefaultBackend() != BackendStdlib {
		t.Fatalf("DefaultBackend() = %q with CL_CIPHER unset, want %q", DefaultBackend(), BackendStdlib)
	}
	std, err := stdaes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	old := DefaultBackend()
	defer func() {
		if err := SetDefaultBackend(old); err != nil {
			t.Fatal(err)
		}
	}()
	for _, tc := range []struct {
		def  string
		want reflect.Type
	}{
		{BackendRef, reflect.TypeOf(&Cipher{})},
		{BackendStdlib, reflect.TypeOf(std)},
	} {
		if err := SetDefaultBackend(tc.def); err != nil {
			t.Fatal(err)
		}
		b, err := NewBackend("", make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.TypeOf(b); got != tc.want {
			t.Fatalf("default %s: empty name resolved to %v, want %v", tc.def, got, tc.want)
		}
	}
}
