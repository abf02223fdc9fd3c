package epoch

import (
	"math"
	"testing"
)

// The paper's §IV-B knee is inclusive: an epoch whose utilization is
// exactly the threshold fraction is a busy epoch. These are the
// boundary regressions for the two historical bugs at that knee: a
// strict > comparison (the exact-knee epoch stayed in counter mode)
// and a float-truncated threshold (the knee shifted one access low
// whenever maxAcc·fraction was not exactly representable).

// TestThresholdBoundaryExact drives each swept fraction to exactly
// the knee: the mid-epoch fallback must fire on the threshold-th
// access, and the next epoch must start counterless.
func TestThresholdBoundaryExact(t *testing.T) {
	for _, frac := range []float64{0.10, 0.60, 0.80} {
		m := newMon(t, frac)
		thr := m.Threshold()
		// The threshold is exactly ceil(maxAcc · fraction).
		want := (m.MaxAccesses()*uint64(math.Round(frac*1e6)) + 999_999) / 1_000_000
		if thr != want {
			t.Errorf("frac %v: Threshold = %d, want ceil(maxAcc·frac) = %d", frac, thr, want)
		}
		// One access below the knee: still counter mode.
		for i := uint64(0); i < thr-1; i++ {
			m.Record(int64(i), 1)
		}
		if m.CurrentMode() != CounterMode {
			t.Fatalf("frac %v: switched below the knee (%d accesses)", frac, thr-1)
		}
		// The access that lands exactly on the knee flips the current
		// epoch (≥ semantics, not >).
		m.Record(int64(thr), 1)
		if m.CurrentMode() != Counterless {
			t.Errorf("frac %v: exact-knee epoch (%d accesses) stayed in counter mode", frac, thr)
		}
		if m.MidEpochSwitches() != 1 {
			t.Errorf("frac %v: mid-epoch switches = %d, want 1", frac, m.MidEpochSwitches())
		}
		// And the closed epoch makes the whole next epoch counterless.
		if got := m.WritebackMode(epochL + 1); got != Counterless {
			t.Errorf("frac %v: epoch after exact-knee epoch = %v, want counterless", frac, got)
		}
		if m.CounterlessEpochs() != 1 {
			t.Errorf("frac %v: counterless epochs = %d, want 1", frac, m.CounterlessEpochs())
		}
	}
}

// TestThresholdNoFloatTruncation pins a case where the old
// uint64(float64(maxAcc)·fraction) computation truncated low:
// 10 accesses at fraction 0.7 (the float product is 6.999...96).
func TestThresholdNoFloatTruncation(t *testing.T) {
	m, err := NewMonitor(1000, 100, 0.7) // maxAcc = 10
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxAccesses() != 10 {
		t.Fatalf("MaxAccesses = %d, want 10", m.MaxAccesses())
	}
	if m.Threshold() != 7 {
		t.Errorf("Threshold = %d, want exactly 7 (float truncation shifted the knee)", m.Threshold())
	}
	// 6/10 accesses is below a 0.7 knee: the epoch must stay counter.
	for i := 0; i < 6; i++ {
		m.Record(int64(i), 1)
	}
	if m.CurrentMode() != CounterMode {
		t.Error("epoch below the 0.7 knee fell back to counterless")
	}
	if got := m.WritebackMode(1001); got != CounterMode {
		t.Errorf("next epoch after 60%% utilization at a 70%% knee = %v, want counter", got)
	}
}
