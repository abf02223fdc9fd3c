// Package check is the differential-verification harness: it fuzzes
// the whole Counter-light datapath against a small, obviously-correct
// reference oracle.
//
// The paper's correctness story rests on three subtle mechanisms —
// per-block EncryptionMetadata encoded in the chipkill parity, RMCC
// memoization equivalence with direct AES, and two-hypothesis
// trial-and-error correction disambiguated by the ciphertext-entropy
// test (§IV-E). All five scheme pipelines share that metadata
// semantics through one dispatch layer, so a single decode bug would
// silently corrupt every figure. This package makes the contract
// executable:
//
//   - Generate (gen.go) derives a random but fully seeded program of
//     reads, writes, mode flips, and fault injections — address reuse,
//     epoch-boundary write bursts, counter-saturation stress.
//
//   - Replay (harness.go) runs a program op by op against a real
//     core.Engine and, after every operation, checks the engine's
//     observable state against the Oracle (oracle.go): a plain map of
//     address → plaintext/mode/counter plus the set of outstanding
//     chip faults. Invariant probes ride along: counter monotonicity
//     per block, RMCC memoized pads equal to direct AES, metadata
//     decode agreeing with the engine_modes.go mode semantics, and
//     entropy-resolved corrections only on genuinely low-entropy
//     plaintext.
//
//   - Differential (harness.go) replays the same program on several
//     engine variants (AES-128/256, tiny memo table, multi-VM,
//     entropy off) and demands bit-identical plaintext and mode
//     sequences within each comparable group.
//
//   - SchemeSweep (scheme.go) runs all registered timing schemes over
//     shared seeds on a short Table-I window and cross-checks Result
//     invariants plus bit-exact determinism.
//
//   - RunCampaign (campaign.go) is the one campaign runner. A Kind
//     hook supplies the check for one (seed, variant) and an optional
//     shrinker: ClassicKind (the oracle harness above),
//     ConcurrentKind (racing submitters through the sharded pool,
//     concurrent.go), CrashKind (NVM power failure and recovery,
//     crash.go) and ClusterKind (multi-node kill/restart chaos,
//     cluster.go). The runner fans the runs out, aggregates counts
//     into check_* metrics, sorts failures by (seed, variant), and
//     evaluates the teeth check, so reports are identical at any -j.
//
//   - Shrink (shrink.go) minimizes the lowest failing classic and
//     crash runs with delta debugging against Recheck, the same
//     dispatch `clcheck -repro <token>` replays, and every emitted
//     token is re-parsed and re-checked before it is reported
//     verified. Concurrent and cluster divergences depend on a
//     goroutine schedule no token can replay; they report the seed.
//
// The expectations are contract-based, not implementation-based: the
// oracle always expects chipkill to correct single-chip faults, so
// running a campaign with correction disabled (the known-bad
// mutation, EngineOptions.DisableCorrection) must produce divergences
// — which is how CI proves the harness detects real bugs instead of
// vacuously passing.
package check
