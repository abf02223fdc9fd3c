// Package counterlight is a from-scratch Go reproduction of
// "Counter-light Memory Encryption" (Wang, Kotra, Jones, Xiong, Jian;
// ISCA 2024): a memory-controller design that combines counterless
// (AES-XTS style, as in Intel TME / AMD SEV) and counter-mode
// (AES-CTR, as in SGX1) memory encryption to get counterless
// encryption's traffic-free memory accesses together with counter
// mode's pre-computable, memoizable cipher work.
//
// The repository contains two cooperating systems:
//
//   - A functional memory controller (internal/core.Engine) moving
//     real bytes through real cryptography: AES-128/256 implemented
//     from first principles (internal/crypto/...), SHA-3 from the
//     standard library's crypto/sha3 (internal/crypto/keccak), XTS and
//     counter-mode block engines with their MAC constructions
//     (internal/cipher), the Synergy chipkill-correct code extended
//     with EncryptionMetadata encoding and dual-hypothesis correction
//     (internal/ecc), split counters with an integrity tree
//     (internal/ctrblock), the RMCC memoization table
//     (internal/memoize), and the entropy disambiguator
//     (internal/entropy).
//
//   - A discrete-event performance simulator (internal/core.Run)
//     modelling the paper's Table I system — four cores with
//     prefetchers and an MLP window, a three-level cache hierarchy,
//     the 64 KB counter cache, a banked DRAM channel with row-buffer
//     timing and a bandwidth-limited bus, and the 100 µs epoch
//     bandwidth monitor — driven by synthetic stand-ins for the
//     paper's GraphBIG / SPEC / PARSEC workloads (internal/trace).
//
// Every table and figure of the paper's evaluation is regenerated by
// internal/figures (rendered by cmd/clbench and benchmarked in
// bench_test.go); the §IV-F algebraic-attack analysis is reproduced by
// internal/attack and cmd/clattack. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured numbers.
package counterlight
