package epoch

import (
	"testing"

	"counterlight/internal/obs/flight"
)

// TestFlightEpochSwitch drives the monitor across a high-utilization
// epoch boundary and asserts the switch lands in the flight ring as a
// KindEpochSwitch event carrying the new mode and the epoch index —
// and that the decision sequence is untouched by the recorder (pure
// observation, same contract as the tracer).
func TestFlightEpochSwitch(t *testing.T) {
	witness := newMon(t, 0.6)
	m := newMon(t, 0.6)
	rec := flight.NewRing(64)
	m.SetFlight(rec)

	// Exceed the threshold inside epoch 0 so epoch 1 starts counterless,
	// then stay idle so epoch 2 switches back.
	drive := func(m *Monitor) []Mode {
		var modes []Mode
		for i := uint64(0); i <= m.Threshold(); i++ {
			m.Record(int64(i), 1)
		}
		modes = append(modes, m.WritebackMode(epochL+1))
		modes = append(modes, m.WritebackMode(2*epochL+1))
		return modes
	}
	got, want := drive(m), drive(witness)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recorder changed mode decisions: %v vs %v", got, want)
	}
	if got[0] != Counterless || got[1] != CounterMode {
		t.Fatalf("mode sequence wrong: %v", got)
	}

	var switches []flight.Event
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flight.KindEpochSwitch {
			switches = append(switches, ev)
		}
	}
	if len(switches) != 2 {
		t.Fatalf("recorded %d epoch switches, want 2", len(switches))
	}
	if Mode(switches[0].A) != Counterless || Mode(switches[1].A) != CounterMode {
		t.Fatalf("switch modes wrong: %+v", switches)
	}
	if switches[0].B >= switches[1].B {
		t.Fatalf("epoch indices not increasing: %d then %d", switches[0].B, switches[1].B)
	}
}
