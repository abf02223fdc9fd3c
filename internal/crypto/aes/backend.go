package aes

// The backend seam: every consumer of AES in this repository (the XTS
// and CTR engines in internal/cipher, and through them the functional
// engine and the mcpool shards) builds its block cipher through
// NewBackend and holds it as a crypto/cipher.Block. Two backends exist:
//
//   - "stdlib": crypto/aes from the standard library, which dispatches
//     to AES-NI/NEON on real hardware — the hardware-class pad
//     generator the paper's latency model assumes, and the default.
//   - "ref": the textbook round-by-round *Cipher, the bit-exactness
//     anchor. The differential oracle in internal/check always
//     recomputes through this backend regardless of what the engine
//     under test runs.
//
// Both are bit-exact (FIPS-197 AES is AES); the conformance goldens,
// FuzzCipherBackends, and the check harness's independent
// recomputation enforce that continuously.

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
	"os"
	"slices"
)

// Backend names.
const (
	BackendRef    = "ref"
	BackendStdlib = "stdlib"
)

// defaultBackend is the process-wide backend used when a caller
// passes an empty name. It starts from the CL_CIPHER environment
// variable (empty means "stdlib") and is overridden by the CLIs'
// -cipher flag via SetDefaultBackend. Set it before building engines;
// it is not synchronized for concurrent mutation.
var defaultBackend = func() string {
	if v := os.Getenv("CL_CIPHER"); v != "" {
		return v
	}
	return BackendStdlib
}()

// DefaultBackend returns the current process-wide default backend
// name. The value is reported verbatim: an unknown name (e.g. a typo
// in CL_CIPHER) surfaces as a loud NewBackend error at engine
// construction instead of a silent fallback.
func DefaultBackend() string { return defaultBackend }

// SetDefaultBackend installs the process-wide default, rejecting
// unknown names. Call it once at startup, before engines are built.
func SetDefaultBackend(name string) error {
	if !slices.Contains(BackendNames(), name) {
		return unknownBackend(name)
	}
	defaultBackend = name
	return nil
}

// BackendNames lists the backend names, sorted.
func BackendNames() []string { return []string{BackendRef, BackendStdlib} }

// unknownBackend is the error for a name that is not a backend; it
// lists the valid ones.
func unknownBackend(name string) error {
	return fmt.Errorf("aes: unknown cipher backend %q (have %v)", name, BackendNames())
}

// NewBackend builds the named backend for a 16, 24, or 32 byte key.
// An empty name selects the process default (DefaultBackend).
func NewBackend(name string, key []byte) (cipher.Block, error) {
	if name == "" {
		name = defaultBackend
	}
	switch name {
	case BackendRef:
		c, err := New(key)
		if err != nil {
			return nil, err
		}
		return c, nil
	case BackendStdlib:
		b, err := stdaes.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("aes: %w", err)
		}
		return b, nil
	}
	return nil, unknownBackend(name)
}
