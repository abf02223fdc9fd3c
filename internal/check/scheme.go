package check

import (
	"fmt"
	"math"
	"sync"

	"counterlight/internal/core"
	"counterlight/internal/figures"
	"counterlight/internal/trace"
)

// SchemeIssue is one timing-pipeline invariant violation found by the
// sweep — the scheme-level analogue of a Divergence.
type SchemeIssue struct {
	Scheme string
	Seed   int64
	Detail string
}

func (i SchemeIssue) String() string {
	return fmt.Sprintf("scheme %s seed %d: %s", i.Scheme, i.Seed, i.Detail)
}

// schemeWindowDivisor shortens the Table-I warmup/measurement windows
// for the sweep: invariants hold at any window length, so the sweep
// runs 1/8-length windows to keep a multi-seed × five-scheme matrix
// fast.
const schemeWindowDivisor = 8

// SchemeSweep runs every timing scheme across the seeds on
// the §III pointer-chase microbenchmark and cross-checks Result
// invariants no scheme may break:
//
//   - the run makes progress (Instructions > 0, IPC > 0) and its
//     numbers are finite;
//   - BusUtilization and MemoHitRate are proper fractions;
//   - WBCounterless never exceeds WBTotal, and only mode-switching
//     schemes count writebacks at all (noenc/counterless report 0);
//   - noenc fetches no counters, so its memo hit rate is 0;
//   - re-running counterlight with identical config is bit-identical
//     (the simulator is deterministic by construction; a violation
//     means shared mutable state leaked between runs).
//
// Seeds fan out over the Runner's pool; scheme runs for one seed stay
// sequential so issues read in a stable order.
func SchemeSweep(seeds []int64, pool *figures.Runner) ([]SchemeIssue, error) {
	w := trace.MicroPointerChase()
	var mu sync.Mutex
	var issues []SchemeIssue
	found := func(scheme string, seed int64, format string, args ...any) {
		mu.Lock()
		issues = append(issues, SchemeIssue{Scheme: scheme, Seed: seed, Detail: fmt.Sprintf(format, args...)})
		mu.Unlock()
	}

	tasks := make([]func() error, len(seeds))
	for i, seed := range seeds {
		tasks[i] = func() error {
			for _, name := range core.SchemeNames() {
				s, ok := core.SchemeByName(name)
				if !ok {
					return fmt.Errorf("check: scheme %q vanished from the registry", name)
				}
				cfg := core.DefaultConfig(s)
				cfg.Seed = seed
				cfg.WarmupTime /= schemeWindowDivisor
				cfg.WindowTime /= schemeWindowDivisor
				res, err := core.Run(cfg, w)
				if err != nil {
					return fmt.Errorf("check: %s seed %d: %w", name, seed, err)
				}
				if res.Instructions == 0 || res.IPC <= 0 {
					found(name, seed, "no progress: %d instructions, IPC %g", res.Instructions, res.IPC)
				}
				for _, v := range []struct {
					name string
					val  float64
				}{
					{"IPC", res.IPC},
					{"BusUtilization", res.BusUtilization},
					{"MemoHitRate", res.MemoHitRate},
					{"AvgMissLatNS", res.AvgMissLatNS},
				} {
					if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
						found(name, seed, "%s is not finite: %g", v.name, v.val)
					}
				}
				if res.BusUtilization < 0 || res.BusUtilization > 1 {
					found(name, seed, "BusUtilization %g outside [0,1]", res.BusUtilization)
				}
				if res.MemoHitRate < 0 || res.MemoHitRate > 1 {
					found(name, seed, "MemoHitRate %g outside [0,1]", res.MemoHitRate)
				}
				if res.WBCounterless > res.WBTotal {
					found(name, seed, "WBCounterless %d > WBTotal %d", res.WBCounterless, res.WBTotal)
				}
				switch name {
				case "noenc":
					if res.MemoHitRate != 0 {
						found(name, seed, "noenc has a memo hit rate (%g) but fetches no counters", res.MemoHitRate)
					}
					fallthrough
				case "counterless":
					if res.WBTotal != 0 {
						found(name, seed, "%s counted %d mode-decided writebacks", name, res.WBTotal)
					}
				}
			}

			// Determinism: the same config must reproduce the same
			// Result, field for field.
			cfg := core.DefaultConfig(core.CounterLight)
			cfg.Seed = seed
			cfg.WarmupTime /= schemeWindowDivisor
			cfg.WindowTime /= schemeWindowDivisor
			a, err := core.Run(cfg, w)
			if err != nil {
				return err
			}
			b, err := core.Run(cfg, w)
			if err != nil {
				return err
			}
			if a.Instructions != b.Instructions || a.IPC != b.IPC ||
				a.LLCMisses != b.LLCMisses || a.LLCWritebacks != b.LLCWritebacks ||
				a.BusUtilization != b.BusUtilization || a.MemoHitRate != b.MemoHitRate ||
				a.WBCounterless != b.WBCounterless || a.WBTotal != b.WBTotal {
				found("counterlight", seed,
					"nondeterministic rerun: instructions %d/%d, misses %d/%d, wb %d/%d",
					a.Instructions, b.Instructions, a.LLCMisses, b.LLCMisses, a.WBTotal, b.WBTotal)
			}
			return nil
		}
	}
	if err := pool.Do(tasks...); err != nil {
		return issues, err
	}
	return issues, nil
}
