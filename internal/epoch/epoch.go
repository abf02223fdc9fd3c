// Package epoch implements the bandwidth monitor that drives
// Counter-light's dynamic writeback-mode switching (paper §IV-B).
//
// The memory controller counts all memory accesses (LLC misses,
// writebacks, and counter accesses) in fixed 100 µs epochs. If an
// epoch's access count reached the threshold — a fraction (default
// 60%) of the maximum number of accesses the channel could serve in an
// epoch — the *next* epoch performs all LLC writebacks in counterless
// mode (no counter or integrity-tree traffic). Otherwise the next
// epoch starts in counter mode and falls back to counterless mid-epoch
// the moment its own access count reaches the same threshold.
//
// internal/mcpool runs the same rule per shard on wall-clock
// nanoseconds, recording each batch's busy time where the simulator
// records accesses.
package epoch

import (
	"fmt"
	"math"
	"math/bits"

	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
)

// Mode is the writeback encryption mode selected for (part of) an epoch.
type Mode int

const (
	// CounterMode writebacks update counters and the integrity tree.
	CounterMode Mode = iota
	// Counterless writebacks skip all counter traffic.
	Counterless
)

func (m Mode) String() string {
	if m == Counterless {
		return "counterless"
	}
	return "counter"
}

// Record describes one closed epoch, as handed to the boundary hook.
type Record struct {
	Accesses    uint64  // accesses observed in the epoch
	Utilization float64 // accesses / channel capacity
	StartMode   Mode    // mode the epoch started in
	SwitchedMid bool    // crossed the threshold and fell back mid-epoch
}

// Monitor tracks accesses per epoch and decides the writeback mode.
type Monitor struct {
	epochLen    int64   // epoch duration in ps (100 µs)
	maxAccesses uint64  // channel capacity in accesses per epoch
	threshold   uint64  // access count that defines "high utilization"
	fraction    float64 // threshold as a fraction (diagnostics)

	epochStart    int64
	accesses      uint64 // accesses observed in the current epoch
	mode          Mode   // writeback mode in effect right now
	startMode     Mode   // mode the current epoch started in
	nextFromStart Mode   // mode the next epoch will start in

	tracer *obs.Tracer  // optional; nil drops every event
	rec    *flight.Ring // optional; nil drops every event

	// onBoundary, when set, receives every closed epoch as it rolls
	// over (the timeline and live-telemetry seam). It must not call
	// back into the monitor.
	onBoundary BoundaryFunc
	closed     uint64 // epochs closed since run start (never reset)

	// statistics (obs instruments so a registry can export them
	// mid-run; the accessors below stay the legacy views)
	epochs              obs.Counter
	counterlessEpochs   obs.Counter // epochs that *started* counterless
	midEpochSwitches    obs.Counter
	totalAccesses       uint64
	busyAccumulated     uint64 // Σ per-epoch accesses, for utilization
	capacityAccumulated uint64 // Σ per-epoch capacity
}

// NewMonitor builds a monitor. epochLen is the epoch duration in
// picoseconds; accessTime is the channel occupancy of one 64-byte
// access in picoseconds (64 B / bandwidth); thresholdFraction is the
// utilization threshold (the paper sweeps 0.10, 0.60, 0.80).
func NewMonitor(epochLen, accessTime int64, thresholdFraction float64) (*Monitor, error) {
	if epochLen <= 0 || accessTime <= 0 {
		return nil, fmt.Errorf("epoch: invalid epochLen=%d accessTime=%d", epochLen, accessTime)
	}
	if thresholdFraction <= 0 || thresholdFraction > 1 {
		return nil, fmt.Errorf("epoch: threshold fraction %v out of (0,1]", thresholdFraction)
	}
	maxAcc := uint64(epochLen / accessTime)
	if maxAcc == 0 {
		return nil, fmt.Errorf("epoch: epoch shorter than one access")
	}
	// "High utilization" is accesses/maxAcc ≥ thresholdFraction
	// (§IV-B); the smallest access count satisfying it is
	// ceil(maxAcc · fraction). Compute that exactly in integers: the
	// fraction is quantized to parts-per-million (exact for the
	// paper's 0.10/0.60/0.80 sweep) and the product kept in 128 bits,
	// so float truncation can neither shift the knee low nor let an
	// epoch sitting exactly on it stay in counter mode.
	const ppm = 1_000_000
	num := uint64(math.Round(thresholdFraction * ppm))
	if num == 0 {
		num = 1
	}
	hi, lo := bits.Mul64(maxAcc, num)
	lo, carry := bits.Add64(lo, ppm-1, 0)
	thr, _ := bits.Div64(hi+carry, lo, ppm)
	if thr == 0 {
		thr = 1
	}
	return &Monitor{
		epochLen:    epochLen,
		maxAccesses: maxAcc,
		threshold:   thr,
		fraction:    thresholdFraction,
	}, nil
}

// Record notes n units of channel occupancy at time now, rolling
// epochs forward as needed. The simulator counts memory accesses
// (reads, writes and counter accesses) one at a time; a unit is
// whatever NewMonitor's accessTime was given in.
func (m *Monitor) Record(now int64, n uint64) {
	m.roll(now)
	m.accesses += n
	m.totalAccesses += n
	// Mid-epoch fallback: a counter-mode epoch that reaches the
	// threshold switches to counterless for the remainder (§IV-B).
	if m.mode == CounterMode && m.accesses >= m.threshold {
		m.mode = Counterless
		m.midEpochSwitches.Inc()
		m.tracer.Emit(now, obs.PhaseInstant, obs.CatEpoch, "mid_epoch_fallback",
			obs.A("accesses", int64(m.accesses)), obs.A("threshold", int64(m.threshold)))
	}
}

// WritebackMode returns the mode to use for a writeback issued at now.
func (m *Monitor) WritebackMode(now int64) Mode {
	m.roll(now)
	return m.mode
}

// BoundaryFunc receives one closed epoch: its boundary time in
// simulated picoseconds, its 1-based index from the start of the run,
// and its Record.
type BoundaryFunc func(boundary int64, index uint64, rec Record)

// SetBoundaryHook installs (or clears, with nil) the closed-epoch
// callback. Like the tracer, the hook is pure observation: it runs
// after all mode decisions for the epoch are final and cannot change
// them.
func (m *Monitor) SetBoundaryHook(fn BoundaryFunc) { m.onBoundary = fn }

// SetFlight attaches a flight recorder: epoch-boundary mode switches
// land in the ring as KindEpochSwitch events (A = new mode, B = epoch
// index), so a post-hoc dump shows the §III-B policy's decisions
// interleaved with the pool's. Pure observation, like the tracer.
func (m *Monitor) SetFlight(r *flight.Ring) { m.rec = r }

// roll advances epoch boundaries up to now.
func (m *Monitor) roll(now int64) {
	for now-m.epochStart >= m.epochLen {
		// Close the current epoch: its access count decides the next
		// epoch's starting mode.
		if m.accesses >= m.threshold {
			m.nextFromStart = Counterless
		} else {
			m.nextFromStart = CounterMode
		}
		m.epochs.Inc()
		m.closed++
		if m.nextFromStart == Counterless {
			m.counterlessEpochs.Inc()
		}
		m.busyAccumulated += m.accesses
		m.capacityAccumulated += m.maxAccesses
		rec := Record{
			Accesses:    m.accesses,
			Utilization: float64(m.accesses) / float64(m.maxAccesses),
			StartMode:   m.startMode,
			SwitchedMid: m.startMode == CounterMode && m.mode == Counterless,
		}
		boundary := m.epochStart + m.epochLen
		if m.onBoundary != nil {
			m.onBoundary(boundary, m.closed, rec)
		}
		if m.tracer != nil {
			m.tracer.Emit(boundary, obs.PhaseCounter, obs.CatEpoch, "epoch_utilization_pct",
				obs.A("value", int64(100*m.accesses/m.maxAccesses)))
			if m.nextFromStart != m.startMode {
				m.tracer.Emit(boundary, obs.PhaseInstant, obs.CatEpoch, "mode_switch",
					obs.A("mode", int64(m.nextFromStart)), obs.A("epoch", int64(m.epochs.Value())))
			}
		}
		if m.nextFromStart != m.startMode {
			m.rec.Record(flight.KindEpochSwitch, -1, 0,
				int64(m.nextFromStart), int64(m.epochs.Value()))
		}
		m.epochStart = boundary
		m.accesses = 0
		m.mode = m.nextFromStart
		m.startMode = m.nextFromStart
		// Once an empty epoch opens in counter mode, every further
		// epoch up to now is empty, stays in counter mode and switches
		// nothing. With no hook or tracer to see them one by one, they
		// close in one step, so an idle gap costs O(1), not one
		// iteration per epoch.
		if m.onBoundary == nil && m.tracer == nil && m.startMode == CounterMode {
			k := (now - m.epochStart) / m.epochLen
			m.epochs.Add(uint64(k))
			m.closed += uint64(k)
			m.capacityAccumulated += uint64(k) * m.maxAccesses
			m.epochStart += k * m.epochLen
		}
	}
}

// Utilization returns the average access-count utilization across all
// completed epochs (0 before the first boundary).
func (m *Monitor) Utilization() float64 {
	if m.capacityAccumulated == 0 {
		return 0
	}
	return float64(m.busyAccumulated) / float64(m.capacityAccumulated)
}

// Threshold returns the per-epoch access count at which high
// utilization begins (inclusive: an epoch with exactly this many
// accesses is busy).
func (m *Monitor) Threshold() uint64 { return m.threshold }

// MaxAccesses returns the per-epoch channel capacity in accesses.
func (m *Monitor) MaxAccesses() uint64 { return m.maxAccesses }

// Epochs returns the number of completed epochs.
func (m *Monitor) Epochs() uint64 { return m.epochs.Value() }

// CounterlessEpochs returns how many completed epochs started in
// counterless mode.
func (m *Monitor) CounterlessEpochs() uint64 { return m.counterlessEpochs.Value() }

// MidEpochSwitches counts counter-mode epochs that fell back to
// counterless before ending.
func (m *Monitor) MidEpochSwitches() uint64 { return m.midEpochSwitches.Value() }

// CurrentMode returns the writeback mode in effect as of the last
// recorded access, without rolling epochs forward — a read-only probe
// for progress reporting that cannot perturb the epoch timeline.
func (m *Monitor) CurrentMode() Mode { return m.mode }

// EpochAccesses returns the accesses recorded so far in the current
// epoch, as of the last roll.
func (m *Monitor) EpochAccesses() uint64 { return m.accesses }

// CounterlessUntil returns the time up to which writebacks stay
// counterless if nothing more is recorded: the end of the next epoch
// once the current one has reached the threshold, the end of the
// current one when it only started counterless, and 0 in counter
// mode. Like CurrentMode it reads the state of the last roll.
func (m *Monitor) CounterlessUntil() int64 {
	switch {
	case m.accesses >= m.threshold:
		return m.epochStart + 2*m.epochLen
	case m.mode == Counterless:
		return m.epochStart + m.epochLen
	}
	return 0
}

// ResetStats clears the mode-switch and threshold-crossing counters
// (per-measurement-window accounting, for parity with cache/dram/
// memoize). The epoch timeline — current mode, epoch boundaries and
// the boundary hook's epoch index — is untouched: it intentionally
// spans the whole run including warmup.
func (m *Monitor) ResetStats() {
	m.epochs.Reset()
	m.counterlessEpochs.Reset()
	m.midEpochSwitches.Reset()
	m.totalAccesses = 0
	m.busyAccumulated = 0
	m.capacityAccumulated = 0
}

// RegisterMetrics exposes the monitor's counters through a registry
// under the given labels.
func (m *Monitor) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterCounter("epoch_epochs_total", &m.epochs, labels...)
	reg.RegisterCounter("epoch_counterless_epochs_total", &m.counterlessEpochs, labels...)
	reg.RegisterCounter("epoch_mid_switches_total", &m.midEpochSwitches, labels...)
}

// SetTracer installs (or clears, with nil) the event tracer the
// monitor emits mode decisions through.
func (m *Monitor) SetTracer(t *obs.Tracer) { m.tracer = t }
