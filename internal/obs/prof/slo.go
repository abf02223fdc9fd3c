package prof

import (
	"fmt"
	"sync"
)

// HealthState is the three-level SLO verdict served by /health.
type HealthState int

const (
	// StateOK: every configured check is within its limit.
	StateOK HealthState = iota
	// StateDegraded: at least one check exceeds its limit but stays
	// under limit × FailFactor.
	StateDegraded
	// StateFailing: at least one check exceeds limit × FailFactor.
	StateFailing
)

func (s HealthState) String() string {
	switch s {
	case StateOK:
		return "OK"
	case StateDegraded:
		return "DEGRADED"
	case StateFailing:
		return "FAILING"
	default:
		return "UNKNOWN"
	}
}

// MarshalText lets the state render as its name in JSON payloads.
func (s HealthState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name back, so /health and /api/slo
// payloads round-trip (clreport -health consumes them).
func (s *HealthState) UnmarshalText(b []byte) error {
	switch string(b) {
	case "OK":
		*s = StateOK
	case "DEGRADED":
		*s = StateDegraded
	case "FAILING":
		*s = StateFailing
	default:
		return fmt.Errorf("prof: unknown health state %q", b)
	}
	return nil
}

// SLOConfig declares the objectives /health evaluates. Zero-valued
// limits disable the corresponding check, so an empty config always
// reports OK.
type SLOConfig struct {
	// SubmitP99Ns: the submit→wait p99 latency objective (histogram
	// reading over the profiler's sampled stream, whole run).
	SubmitP99Ns int64
	// MaxDegradedFrac: ceiling on the fraction of writes demoted to
	// counterless in the current window.
	MaxDegradedFrac float64
	// FailFactor scales a limit into its FAILING threshold; a check at
	// value > limit×FailFactor is FAILING, > limit is DEGRADED.
	// Defaults to 2.
	FailFactor float64
}

// SLOInput is one evaluation's raw readings. Writes and
// DegradedWrites are cumulative; the evaluator differences them
// against the previous evaluation so each verdict covers the window
// since the last one.
type SLOInput struct {
	SubmitP99Ns    int64
	Writes         uint64
	DegradedWrites uint64
}

// SLOCheck is one objective's verdict within a Health report.
type SLOCheck struct {
	Name  string      `json:"name"`
	State HealthState `json:"state"`
	Value float64     `json:"value"`
	Limit float64     `json:"limit"`
}

// Health is the aggregate verdict: worst state across checks.
type Health struct {
	State  HealthState `json:"state"`
	Checks []SLOCheck  `json:"checks"`
}

// Evaluator turns successive SLOInput readings into rolling Health
// verdicts. Safe for concurrent use; Eval and Last are cold-path.
type Evaluator struct {
	cfg SLOConfig

	mu   sync.Mutex
	prev SLOInput
	seen bool
	last Health
}

// NewEvaluator builds an evaluator for cfg, defaulting FailFactor
// to 2.
func NewEvaluator(cfg SLOConfig) *Evaluator {
	if cfg.FailFactor <= 0 {
		cfg.FailFactor = 2
	}
	return &Evaluator{cfg: cfg, last: Health{State: StateOK}}
}

// Config returns the objectives the evaluator enforces.
func (e *Evaluator) Config() SLOConfig { return e.cfg }

// grade maps a measured value against its limit (0 disables).
func (e *Evaluator) grade(name string, value, limit float64) SLOCheck {
	c := SLOCheck{Name: name, State: StateOK, Value: value, Limit: limit}
	if limit <= 0 {
		return c
	}
	switch {
	case value > limit*e.cfg.FailFactor:
		c.State = StateFailing
	case value > limit:
		c.State = StateDegraded
	}
	return c
}

// Eval grades in against the configured objectives over the window
// since the previous call and returns the aggregate verdict. The
// first call has no window, so fraction checks read 0. Cumulative
// counters can fall — a cluster sums only live nodes, so a node kill
// or restart drops its share — and then Eval starts a fresh window at
// in, reading 0 like a first call, instead of grading a wrapped
// difference.
func (e *Evaluator) Eval(in SLOInput) Health {
	if e == nil {
		return Health{State: StateOK}
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	var degFrac float64
	if e.seen && in.Writes >= e.prev.Writes && in.DegradedWrites >= e.prev.DegradedWrites {
		if writes := in.Writes - e.prev.Writes; writes > 0 {
			degFrac = float64(in.DegradedWrites-e.prev.DegradedWrites) / float64(writes)
		}
	}
	e.prev, e.seen = in, true

	h := Health{State: StateOK}
	h.Checks = append(h.Checks,
		e.grade("submit_p99_ns", float64(in.SubmitP99Ns), float64(e.cfg.SubmitP99Ns)),
		e.grade("degraded_write_frac", degFrac, e.cfg.MaxDegradedFrac),
	)
	for _, c := range h.Checks {
		if c.State > h.State {
			h.State = c.State
		}
	}
	e.last = h
	return h
}

// Last returns the most recent verdict (OK before any Eval).
func (e *Evaluator) Last() Health {
	if e == nil {
		return Health{State: StateOK}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}
