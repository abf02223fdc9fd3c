package check

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"counterlight/internal/fault"
	"counterlight/internal/figures"
	"counterlight/internal/obs"
)

// CampaignSpec is a JSON-loadable fuzz campaign: how many seeded
// programs to generate, what faults to sprinkle, which variants to run
// them on, and whether divergences are the failure mode or the whole
// point (ExpectDivergence is a teeth check: a campaign run against a
// deliberately broken engine or recovery MUST diverge, or the harness
// itself is broken).
type CampaignSpec struct {
	Name      string  `json:"name"`
	Seeds     int     `json:"seeds"`
	SeedStart int64   `json:"seed_start"`
	Ops       int     `json:"ops"`
	Blocks    uint32  `json:"blocks"`
	FaultRate float64 `json:"fault_rate"`
	// FaultKinds and FaultRegions use the fault package's String
	// names ("single-chip", "parity", ...; "meta" aliases "parity").
	FaultKinds   []string `json:"fault_kinds"`
	FaultRegions []string `json:"fault_regions"`
	// Variants lists engine variants to run each program on; empty
	// means the campaign kind's default (for the classic kind, the
	// full differential matrix with cross-variant checks).
	Variants         []string `json:"variants"`
	ECCOff           bool     `json:"ecc_off"`
	ExpectDivergence bool     `json:"expect_divergence"`
}

// DefaultCampaign is clcheck's no-flags campaign: the full matrix with
// the generator defaults.
func DefaultCampaign(seeds int, seedStart int64) CampaignSpec {
	return CampaignSpec{Name: "default", Seeds: seeds, SeedStart: seedStart}
}

// LoadCampaign reads a CampaignSpec from a JSON file. The file comes
// from outside the program, so an unknown field (a typo such as
// "expect_divergance") is an error rather than a silent default, and
// so is anything Validate rejects. A missing or zero seed count means
// 16 seeds.
func LoadCampaign(path string) (CampaignSpec, error) {
	var spec CampaignSpec
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("check: campaign %s: %w", path, err)
	}
	if spec.Seeds == 0 {
		spec.Seeds = 16
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("check: campaign %s: %w", path, err)
	}
	return spec, nil
}

// Validate rejects a spec no campaign can run: a negative seed or op
// count, a fault rate outside [0, 1], or an unknown fault kind, fault
// region or variant name.
func (spec CampaignSpec) Validate() error {
	switch {
	case spec.Seeds < 0:
		return fmt.Errorf("check: seeds must be non-negative (got %d)", spec.Seeds)
	case spec.Ops < 0:
		return fmt.Errorf("check: ops must be non-negative (got %d)", spec.Ops)
	case !(spec.FaultRate >= 0 && spec.FaultRate <= 1):
		return fmt.Errorf("check: fault rate must be in [0, 1] (got %g)", spec.FaultRate)
	}
	for _, name := range spec.Variants {
		if _, err := VariantByName(name); err != nil {
			return err
		}
	}
	_, err := spec.genConfig(DefaultGenConfig())
	return err
}

// genConfig applies the spec's generator knobs on top of a kind's base
// config.
func (spec CampaignSpec) genConfig(cfg GenConfig) (GenConfig, error) {
	if spec.Ops > 0 {
		cfg.Ops = spec.Ops
	}
	if spec.Blocks > 0 {
		cfg.Blocks = spec.Blocks
	}
	if spec.FaultRate > 0 {
		cfg.FaultRate = spec.FaultRate
	}
	if len(spec.FaultKinds) > 0 {
		cfg.Kinds = nil
		for _, name := range spec.FaultKinds {
			k, ok := fault.KindByName(name)
			if !ok {
				return cfg, fmt.Errorf("check: unknown fault kind %q", name)
			}
			cfg.Kinds = append(cfg.Kinds, k)
		}
	}
	if len(spec.FaultRegions) > 0 {
		cfg.Regions = nil
		for _, name := range spec.FaultRegions {
			r, ok := fault.RegionByName(name)
			if !ok {
				return cfg, fmt.Errorf("check: unknown fault region %q", name)
			}
			cfg.Regions = append(cfg.Regions, r)
		}
	}
	return cfg, nil
}

// Kind is one differential campaign's hook into RunCampaign: how to
// check one (seed, variant), whether its failures shrink to tokens,
// and how its metrics are named. ClassicKind, ConcurrentKind,
// CrashKind and ClusterKind build the four the repo runs.
type Kind struct {
	// Name prefixes the kind's metrics, check_<Name>_<counter>_total
	// (check_<counter>_total when empty, as for the classic kind), and
	// is the campaign label when the spec has no name.
	Name string
	// Counters are the kind-specific counts Run reports, in the order
	// a summary prints them.
	Counters []Counter
	// Gen is the generator config the spec's knobs refine.
	Gen GenConfig
	// Variants is the variant list when the spec names none.
	Variants []string
	// Run checks the generated program of one (seed, variant).
	Run func(seed int64, variant string, gen GenConfig, eccOff bool) (Outcome, error)
	// Shrink minimizes a failing Outcome.Repro; nil when a failure
	// cannot be replayed from a token and is reported by seed only.
	Shrink func(Repro) Repro
}

// Counter is one kind-specific campaign count: Name is its metric
// stem, Desc the phrase a summary prints after the value.
type Counter struct{ Name, Desc string }

// Outcome is one checked run.
type Outcome struct {
	Ops    int
	Div    *Divergence // first divergence; nil on a clean run
	Counts map[string]uint64
	Repro  Repro // the run as a repro, for kinds that shrink
}

// matrix is the classic kind's default variant: every entry of
// Variants, with cross-variant differential checks on top.
const matrix = "matrix"

// ClassicKind is the serial oracle campaign: each program replayed op
// by op on one variant, or by default on the whole differential
// matrix. Failures shrink to tokens.
func ClassicKind() Kind {
	return Kind{
		Counters: []Counter{{"faults_injected", "injected faults"}, {"engine_dues", "engine DUEs"}},
		Gen:      DefaultGenConfig(),
		Variants: []string{matrix},
		Run:      runClassic,
		Shrink:   Shrink,
	}
}

func runClassic(seed int64, variant string, gen GenConfig, eccOff bool) (Outcome, error) {
	r := Repro{Variant: variant, ECCOff: eccOff, Program: Generate(seed, gen)}
	if variant != matrix {
		return Recheck(r)
	}
	results, d, err := Differential(r.Program, eccOff)
	if err != nil {
		return Outcome{}, err
	}
	// Attribute the shrink to a variant that diverged on its own
	// oracle, or the first variant for cross-variant mismatches.
	r.Variant = results[0].Variant
	for _, rr := range results {
		if rr.Div != nil {
			r.Variant = rr.Variant
			break
		}
	}
	return classicOutcome(r, results, d), nil
}

func classicOutcome(r Repro, results []RunResult, d *Divergence) Outcome {
	var faults, dues uint64
	for _, op := range r.Program.Ops {
		if op.Kind == OpFault {
			faults++
		}
	}
	for _, rr := range results {
		dues += rr.Stats.DUEs
	}
	return Outcome{Ops: len(r.Program.Ops), Div: d, Repro: r,
		Counts: map[string]uint64{"faults_injected": faults, "engine_dues": dues}}
}

// Recheck replays a repro through the pipeline its token names: the
// NVM crash/recover/diff pipeline for crash repros, the serial oracle
// harness otherwise. It is the failure predicate Shrink minimizes
// against, the check every campaign token must pass, and what
// `clcheck -repro` runs. Its Counts are CrashKind's or ClassicKind's.
func Recheck(r Repro) (Outcome, error) {
	if r.Crash {
		return replayCrash(r, nil)
	}
	rr, err := Replay(r)
	if err != nil {
		return Outcome{}, err
	}
	return classicOutcome(r, []RunResult{rr}, rr.Div), nil
}

// diverges is Recheck as a predicate; a setup error counts as clean.
func diverges(r Repro) *Divergence {
	out, err := Recheck(r)
	if err != nil {
		return nil
	}
	return out.Div
}

// Failure is one diverging (seed, variant). Token and Verified are set
// when the kind shrinks and the failure is among the first maxShrink.
type Failure struct {
	Seed     int64
	Variant  string
	Div      Divergence
	Token    string // minimized repro token (clcheck -repro)
	Verified bool   // the token was re-parsed and still diverges
}

// Report aggregates one campaign run.
type Report struct {
	Spec     CampaignSpec
	Programs int
	Ops      int
	Counts   map[string]uint64 // kind-specific counts by Counter.Name
	Failures []Failure         // sorted by (seed, variant)
	tokens   bool              // the kind shrinks failures to tokens
}

// OK reports whether the campaign met its expectation: zero
// divergences normally; with ExpectDivergence, at least one failure,
// which must carry a verified token when the kind produces tokens.
func (r Report) OK() bool {
	if !r.Spec.ExpectDivergence {
		return len(r.Failures) == 0
	}
	for _, f := range r.Failures {
		if f.Verified || !r.tokens {
			return true
		}
	}
	return false
}

// maxShrink bounds how many failures a campaign minimizes; the rest
// are reported unshrunken (shrinking is the expensive part, and a
// handful of minimal repros is all a bug hunt needs).
const maxShrink = 4

// RunCampaign checks spec.Seeds programs on each variant, fanning the
// (seed, variant) runs out over the Runner's worker pool (the same -j
// budget the figure sweeps use). Failures are sorted by (seed,
// variant); when the kind shrinks, the first maxShrink of them are
// minimized to tokens and every token is re-parsed and replayed, so
// the report is the same at any worker count. Statistics land in reg
// under the kind's check_* names, labelled campaign="<spec name>";
// pass nil to skip metrics.
func RunCampaign(spec CampaignSpec, kind Kind, pool *figures.Runner, reg *obs.Registry) (Report, error) {
	if spec.Name == "" {
		spec.Name = kind.Name
	}
	report := Report{Spec: spec, Counts: make(map[string]uint64), tokens: kind.Shrink != nil}
	if err := spec.Validate(); err != nil {
		return report, err
	}
	gen, err := spec.genConfig(kind.Gen)
	if err != nil {
		return report, err
	}
	variants := spec.Variants
	if len(variants) == 0 {
		variants = kind.Variants
	}

	type failure struct {
		Failure
		repro Repro
	}
	var mu sync.Mutex
	var fails []failure
	var tasks []func() error
	for i := 0; i < spec.Seeds; i++ {
		seed := spec.SeedStart + int64(i)
		for _, variant := range variants {
			tasks = append(tasks, func() error {
				out, err := kind.Run(seed, variant, gen, spec.ECCOff)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				report.Programs++
				report.Ops += out.Ops
				for name, n := range out.Counts {
					report.Counts[name] += n
				}
				if out.Div != nil {
					fails = append(fails, failure{Failure{Seed: seed, Variant: variant, Div: *out.Div}, out.Repro})
				}
				return nil
			})
		}
	}
	if err := pool.Do(tasks...); err != nil {
		return report, err
	}
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].Seed != fails[j].Seed {
			return fails[i].Seed < fails[j].Seed
		}
		return fails[i].Variant < fails[j].Variant
	})

	if kind.Shrink != nil {
		shrinks := make([]func() error, min(len(fails), maxShrink))
		for i := range shrinks {
			f := &fails[i]
			shrinks[i] = func() error {
				f.Token = kind.Shrink(f.repro).Token()
				// Round-trip the token and confirm it still diverges —
				// the artifact CI uploads must replay.
				rt, err := ParseToken(f.Token)
				f.Verified = err == nil && diverges(rt) != nil
				return nil
			}
		}
		pool.Do(shrinks...)
	}
	for _, f := range fails {
		report.Failures = append(report.Failures, f.Failure)
	}

	if reg != nil {
		prefix := "check_"
		if kind.Name != "" {
			prefix += kind.Name + "_"
		}
		label := obs.Label{Key: "campaign", Value: spec.Name}
		add := func(name string, n uint64) { reg.Counter(prefix+name+"_total", label).Add(n) }
		add("programs", uint64(report.Programs))
		add("ops", uint64(report.Ops))
		for _, c := range kind.Counters {
			add(c.Name, report.Counts[c.Name])
		}
		add("divergences", uint64(len(report.Failures)))
	}
	return report, nil
}
