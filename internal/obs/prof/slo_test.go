package prof

import (
	"math"
	"testing"
)

// TestSLOStateMachine walks the evaluator through the three states on
// each check and pins the worst-check-wins aggregation.
func TestSLOStateMachine(t *testing.T) {
	e := NewEvaluator(SLOConfig{
		SubmitP99Ns:     1_000_000, // 1ms
		MaxDegradedFrac: 0.10,
	})

	// First eval: within every limit; fraction checks have no window
	// yet and read 0.
	h := e.Eval(SLOInput{SubmitP99Ns: 500_000, Writes: 100, DegradedWrites: 50})
	if h.State != StateOK {
		t.Fatalf("first eval state = %v, want OK", h.State)
	}

	// Second eval: 20 degraded of 100 new writes = 0.20 > 0.10 limit
	// but ≤ 0.20 fail threshold → DEGRADED.
	h = e.Eval(SLOInput{SubmitP99Ns: 500_000, Writes: 200, DegradedWrites: 70})
	if h.State != StateDegraded {
		t.Fatalf("degraded-frac eval state = %v, want DEGRADED", h.State)
	}
	if got := h.Checks[1].Value; got != 0.20 {
		t.Fatalf("degraded frac = %v, want 0.20 (windowed, not cumulative)", got)
	}

	// Third eval: p99 at 3ms > 1ms×2 → FAILING dominates even though
	// the degraded fraction recovered.
	h = e.Eval(SLOInput{SubmitP99Ns: 3_000_000, Writes: 300, DegradedWrites: 70})
	if h.State != StateFailing {
		t.Fatalf("p99 eval state = %v, want FAILING", h.State)
	}
	if e.Last().State != StateFailing {
		t.Fatalf("Last() = %v, want FAILING", e.Last().State)
	}

	// Fourth eval: everything back in budget → OK again.
	h = e.Eval(SLOInput{SubmitP99Ns: 400_000, Writes: 400, DegradedWrites: 72})
	if h.State != StateOK {
		t.Fatalf("recovery eval state = %v, want OK", h.State)
	}
}

// TestSLOZeroConfig: unset limits disable their checks, so an empty
// config is always OK no matter the readings.
func TestSLOZeroConfig(t *testing.T) {
	e := NewEvaluator(SLOConfig{})
	e.Eval(SLOInput{})
	h := e.Eval(SLOInput{SubmitP99Ns: 1 << 40, Writes: 10, DegradedWrites: 10})
	if h.State != StateOK {
		t.Fatalf("zero-config state = %v, want OK", h.State)
	}
	for _, c := range h.Checks {
		if c.State != StateOK {
			t.Fatalf("check %s = %v, want OK with limit unset", c.Name, c.State)
		}
	}
}

// TestSLOCounterReset: cumulative counters fall when a cluster node is
// killed or restarted (the aggregate sums only live pools). The
// evaluator must start a fresh window instead of grading the wrapped
// uint64 difference.
func TestSLOCounterReset(t *testing.T) {
	for _, c := range []struct {
		name       string
		prev, next SLOInput
		want       float64
		state      HealthState
	}{
		{"writes and degraded fall", SLOInput{Writes: 1000, DegradedWrites: 100},
			SLOInput{Writes: 500, DegradedWrites: 60}, 0, StateOK},
		{"only degraded falls", SLOInput{Writes: 1000, DegradedWrites: 100},
			SLOInput{Writes: 1200, DegradedWrites: 50}, 0, StateOK},
		{"only writes fall", SLOInput{Writes: 1000, DegradedWrites: 100},
			SLOInput{Writes: 900, DegradedWrites: 150}, 0, StateOK},
		{"both grow", SLOInput{Writes: 1000, DegradedWrites: 100},
			SLOInput{Writes: 1100, DegradedWrites: 130}, 0.30, StateDegraded},
	} {
		e := NewEvaluator(SLOConfig{MaxDegradedFrac: 0.2})
		e.Eval(c.prev)
		h := e.Eval(c.next)
		if got := h.Checks[1].Value; math.Abs(got-c.want) > 1e-9 || h.State != c.state {
			t.Errorf("%s: degraded_write_frac = %v (%v), want %v (%v)", c.name, got, h.State, c.want, c.state)
		}
	}
	// The fresh window starts at the fallen reading: the next window
	// differences against it.
	e := NewEvaluator(SLOConfig{MaxDegradedFrac: 0.2})
	e.Eval(SLOInput{Writes: 1000, DegradedWrites: 100})
	e.Eval(SLOInput{Writes: 500, DegradedWrites: 60})
	if got := e.Eval(SLOInput{Writes: 600, DegradedWrites: 70}).Checks[1].Value; math.Abs(got-0.10) > 1e-9 {
		t.Errorf("window after reset = %v, want 0.10", got)
	}
}

// TestHealthStateText pins the wire names /health clients parse.
func TestHealthStateText(t *testing.T) {
	for st, want := range map[HealthState]string{
		StateOK: "OK", StateDegraded: "DEGRADED", StateFailing: "FAILING",
	} {
		if st.String() != want {
			t.Fatalf("state %d String = %q, want %q", st, st.String(), want)
		}
		b, err := st.MarshalText()
		if err != nil || string(b) != want {
			t.Fatalf("state %d MarshalText = %q, %v", st, b, err)
		}
	}
}
