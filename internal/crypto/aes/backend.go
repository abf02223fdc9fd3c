package aes

// DefaultBackend names the one production AES: every engine in this
// repository runs crypto/aes from the standard library, which
// dispatches to AES-NI/NEON on real hardware — the hardware-class pad
// generator the paper's latency model assumes. The textbook *Cipher in
// this package is only the reference the differential oracle, the fuzz
// target and the tests compare against. The name is recorded in perf
// snapshots and profiler labels.
func DefaultBackend() string { return "stdlib" }
