package epoch

import (
	"testing"

	"counterlight/internal/obs/flight"
)

const (
	us     = int64(1_000_000) // 1 µs in ps
	epochL = 100 * us         // the paper's 100 µs epoch
	burst  = int64(2500)      // 64B at 25.6 GB/s = 2.5 ns
)

func newMon(t *testing.T, frac float64) *Monitor {
	t.Helper()
	m, err := NewMonitor(epochL, burst, frac)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMonitorErrors(t *testing.T) {
	if _, err := NewMonitor(0, burst, 0.6); err == nil {
		t.Error("want error for zero epoch")
	}
	if _, err := NewMonitor(epochL, 0, 0.6); err == nil {
		t.Error("want error for zero access time")
	}
	if _, err := NewMonitor(epochL, burst, 0); err == nil {
		t.Error("want error for zero threshold")
	}
	if _, err := NewMonitor(epochL, burst, 1.5); err == nil {
		t.Error("want error for threshold > 1")
	}
	if _, err := NewMonitor(burst/2, burst, 0.6); err == nil {
		t.Error("want error for epoch shorter than one access")
	}
}

func TestCapacityAndThreshold(t *testing.T) {
	m := newMon(t, 0.6)
	// 100 µs / 2.5 ns = 40000 accesses per epoch; threshold 24000.
	if m.MaxAccesses() != 40000 {
		t.Errorf("MaxAccesses = %d, want 40000", m.MaxAccesses())
	}
	if m.Threshold() != 24000 {
		t.Errorf("Threshold = %d, want 24000", m.Threshold())
	}
}

func TestStartsInCounterMode(t *testing.T) {
	m := newMon(t, 0.6)
	if got := m.WritebackMode(0); got != CounterMode {
		t.Errorf("initial mode = %v, want counter", got)
	}
}

// A quiet epoch keeps the next epoch in counter mode.
func TestQuietEpochStaysCounterMode(t *testing.T) {
	m := newMon(t, 0.6)
	for i := 0; i < 100; i++ { // far below 24000
		m.Record(int64(i)*1000, 1)
	}
	if got := m.WritebackMode(epochL + 1); got != CounterMode {
		t.Errorf("after quiet epoch mode = %v, want counter", got)
	}
	if m.Epochs() != 1 || m.CounterlessEpochs() != 0 {
		t.Errorf("epochs=%d counterless=%d", m.Epochs(), m.CounterlessEpochs())
	}
}

// A busy epoch makes the whole next epoch counterless.
func TestBusyEpochSwitchesNext(t *testing.T) {
	m := newMon(t, 0.6)
	for i := 0; i < 30000; i++ { // above 24000
		m.Record(int64(i)*(epochL/40000), 1)
	}
	if got := m.WritebackMode(epochL + 1); got != Counterless {
		t.Errorf("after busy epoch mode = %v, want counterless", got)
	}
	if m.CounterlessEpochs() != 1 {
		t.Errorf("counterless epochs = %d, want 1", m.CounterlessEpochs())
	}
}

// Crossing the threshold mid-epoch flips the CURRENT epoch to
// counterless for its remainder (§IV-B).
func TestMidEpochFallback(t *testing.T) {
	m := newMon(t, 0.6)
	thr := int(m.Threshold())
	for i := 0; i <= thr; i++ {
		m.Record(int64(i), 1) // all within the first epoch
	}
	if got := m.WritebackMode(int64(thr) + 1); got != Counterless {
		t.Errorf("mid-epoch mode = %v, want counterless after crossing threshold", got)
	}
	if m.MidEpochSwitches() != 1 {
		t.Errorf("mid-epoch switches = %d, want 1", m.MidEpochSwitches())
	}
}

// After a busy epoch and then a quiet one, mode returns to counter.
func TestRecovery(t *testing.T) {
	m := newMon(t, 0.6)
	for i := 0; i < 30000; i++ {
		m.Record(int64(i)*(epochL/40000), 1)
	}
	// Epoch 2: silent. Roll to epoch 3.
	if got := m.WritebackMode(2*epochL + 1); got != CounterMode {
		t.Errorf("after quiet epoch mode = %v, want counter again", got)
	}
}

// Rolling across many empty epochs must terminate and count them.
func TestRollManyEpochs(t *testing.T) {
	m := newMon(t, 0.6)
	m.Record(0, 1)
	m.Record(50*epochL, 1)
	if m.Epochs() != 50 {
		t.Errorf("epochs = %d, want 50", m.Epochs())
	}
}

// An unobserved monitor closes an idle gap in one step: a 2^50 ns gap
// (13 days of 100 µs epochs) returns at once, with every epoch
// counted, and the busy epoch before it still makes exactly one
// counterless epoch. Observed the same way, the counts agree.
func TestRollIdleGapUnobserved(t *testing.T) {
	const gap = int64(1) << 50
	m, err := NewMonitor(100_000, 1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRing(16)
	m.SetFlight(rec)
	m.Record(10, 70_000)
	if got := m.WritebackMode(gap); got != CounterMode {
		t.Fatalf("mode after the gap = %v, want counter", got)
	}
	if want := uint64(gap / 100_000); m.Epochs() != want {
		t.Errorf("epochs = %d, want %d", m.Epochs(), want)
	}
	if m.CounterlessEpochs() != 1 || m.MidEpochSwitches() != 1 {
		t.Errorf("counterless epochs %d, mid switches %d, want 1 and 1",
			m.CounterlessEpochs(), m.MidEpochSwitches())
	}
	if n := len(rec.Snapshot()); n != 2 {
		t.Errorf("flight ring holds %d epoch switches, want 2 (to counterless and back)", n)
	}
	if u := m.Utilization(); u <= 0 || u > 1e-6 {
		t.Errorf("utilization over the gap = %v, want a tiny positive share", u)
	}

	// The same short trace, one epoch at a time under a hook.
	short := func(observe bool) *Monitor {
		m, err := NewMonitor(100_000, 1, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			m.SetBoundaryHook(func(int64, uint64, Record) {})
		}
		m.Record(10, 70_000)
		m.Record(1_000_050, 5)
		m.WritebackMode(5_000_000)
		return m
	}
	fast, slow := short(false), short(true)
	if fast.Epochs() != slow.Epochs() || fast.CounterlessEpochs() != slow.CounterlessEpochs() ||
		fast.Utilization() != slow.Utilization() || fast.CounterlessUntil() != slow.CounterlessUntil() {
		t.Errorf("one-step roll disagrees with the epoch loop: epochs %d/%d counterless %d/%d util %v/%v",
			fast.Epochs(), slow.Epochs(), fast.CounterlessEpochs(), slow.CounterlessEpochs(),
			fast.Utilization(), slow.Utilization())
	}
}

// CounterlessUntil is the deadline a lock-free reader compares the
// clock against: the end of the next epoch once the current one is
// busy, the end of the current one when it only started counterless,
// and 0 in counter mode.
func TestCounterlessUntil(t *testing.T) {
	m, err := NewMonitor(100_000, 1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(10, 59_999)
	if got := m.CounterlessUntil(); got != 0 {
		t.Errorf("below the knee: until = %d, want 0", got)
	}
	m.Record(20, 1)
	if got := m.CounterlessUntil(); got != 200_000 {
		t.Errorf("at the knee: until = %d, want the end of the next epoch", got)
	}
	m.WritebackMode(150_000)
	if got := m.CounterlessUntil(); got != 200_000 {
		t.Errorf("in the counterless epoch: until = %d, want its end", got)
	}
	if got := m.EpochAccesses(); got != 0 {
		t.Errorf("accesses in the fresh epoch = %d, want 0", got)
	}
	m.WritebackMode(250_000)
	if got := m.CounterlessUntil(); got != 0 {
		t.Errorf("after a quiet epoch: until = %d, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	m := newMon(t, 0.6)
	// Exactly half the capacity in epoch 0.
	n := int(m.MaxAccesses() / 2)
	for i := 0; i < n; i++ {
		m.Record(int64(i), 1)
	}
	m.WritebackMode(epochL + 1) // close epoch 0
	u := m.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

// Threshold sweep sanity: a lower threshold switches more epochs to
// counterless under the same traffic (Fig. 21's trend).
func TestThresholdSweepTrend(t *testing.T) {
	counterlessShare := func(frac float64) float64 {
		m := newMon(t, frac)
		// Steady traffic at ~40% utilization across 50 epochs.
		perEpoch := int(float64(m.MaxAccesses()) * 0.4)
		for e := 0; e < 50; e++ {
			base := int64(e) * epochL
			for i := 0; i < perEpoch; i++ {
				m.Record(base+int64(i)*(epochL/int64(perEpoch)), 1)
			}
		}
		m.WritebackMode(51 * epochL)
		return float64(m.CounterlessEpochs()) / float64(m.Epochs())
	}
	low := counterlessShare(0.10) // threshold below traffic: all counterless
	mid := counterlessShare(0.60) // threshold above traffic: none
	if low < 0.9 {
		t.Errorf("10%% threshold: counterless share = %v, want ~1", low)
	}
	if mid > 0.1 {
		t.Errorf("60%% threshold: counterless share = %v, want ~0", mid)
	}
}

func TestModeString(t *testing.T) {
	if CounterMode.String() != "counter" || Counterless.String() != "counterless" {
		t.Error("mode strings wrong")
	}
}

func TestHistoryTimeline(t *testing.T) {
	m := newMon(t, 0.6)
	var h []Record
	m.SetBoundaryHook(func(_ int64, _ uint64, r Record) { h = append(h, r) })
	// Epoch 0: busy (beyond threshold). Epoch 1: quiet. Close both.
	for i := 0; i < int(m.Threshold())+10; i++ {
		m.Record(int64(i), 1)
	}
	m.Record(epochL+5, 1) // one access in epoch 1
	m.WritebackMode(2*epochL + 1)
	if len(h) != 2 {
		t.Fatalf("hook saw %d epochs, want 2", len(h))
	}
	if h[0].StartMode != CounterMode || !h[0].SwitchedMid {
		t.Errorf("epoch 0 record = %+v, want counter-mode start with mid switch", h[0])
	}
	if h[0].Utilization <= 0.6 {
		t.Errorf("epoch 0 utilization = %v, want above threshold", h[0].Utilization)
	}
	if h[1].StartMode != Counterless {
		t.Errorf("epoch 1 started %v, want counterless (previous epoch busy)", h[1].StartMode)
	}
	if h[1].SwitchedMid {
		t.Error("epoch 1 wrongly marked mid-switched")
	}
}

// ResetStats must clear the window counters without disturbing the
// epoch timeline (mode, boundaries, closed epochs).
func TestResetStatsKeepsTimeline(t *testing.T) {
	m := newMon(t, 0.6)
	closed := 0
	m.SetBoundaryHook(func(int64, uint64, Record) { closed++ })
	// Drive one busy epoch (mid switch + counterless next) and roll
	// into the second.
	for i := uint64(0); i <= m.Threshold()+1; i++ {
		m.Record(int64(i), 1)
	}
	m.Record(epochL+1, 1)
	if m.Epochs() == 0 || m.MidEpochSwitches() == 0 {
		t.Fatalf("setup failed: epochs=%d switches=%d", m.Epochs(), m.MidEpochSwitches())
	}
	closedBefore := closed
	modeBefore := m.CurrentMode()

	m.ResetStats()

	if m.Epochs() != 0 || m.CounterlessEpochs() != 0 || m.MidEpochSwitches() != 0 {
		t.Errorf("counters survived reset: epochs=%d counterless=%d switches=%d",
			m.Epochs(), m.CounterlessEpochs(), m.MidEpochSwitches())
	}
	if m.Utilization() != 0 {
		t.Errorf("utilization = %v after reset, want 0", m.Utilization())
	}
	if closed != closedBefore {
		t.Errorf("reset closed epochs: %d -> %d", closedBefore, closed)
	}
	if m.CurrentMode() != modeBefore {
		t.Errorf("mode changed across reset: %v -> %v", modeBefore, m.CurrentMode())
	}
	// The timeline keeps rolling correctly after a reset.
	m.Record(2*epochL+1, 1)
	if m.Epochs() != 1 {
		t.Errorf("epochs after reset+roll = %d, want 1", m.Epochs())
	}
}

// TestBoundaryHook: the closed-epoch callback fires once per rollover,
// even past ResetStats.
func TestBoundaryHook(t *testing.T) {
	m := newMon(t, 0.6)
	type closed struct {
		boundary int64
		index    uint64
		rec      Record
	}
	var got []closed
	m.SetBoundaryHook(func(b int64, i uint64, r Record) {
		got = append(got, closed{b, i, r})
	})

	// Epoch 1: busy (cross the threshold) -> mid-epoch fallback.
	for i := uint64(0); i <= m.Threshold(); i++ {
		m.Record(1, 1)
	}
	// Epoch 2 opens counterless; one access closes epoch 1.
	m.Record(epochL+1, 1)
	if len(got) != 1 {
		t.Fatalf("hook fired %d times after one rollover", len(got))
	}
	if got[0].boundary != epochL || got[0].index != 1 {
		t.Errorf("boundary/index = %d/%d, want %d/1", got[0].boundary, got[0].index, epochL)
	}
	if !got[0].rec.SwitchedMid || got[0].rec.StartMode != CounterMode {
		t.Errorf("record = %+v, want counter-mode start with mid switch", got[0].rec)
	}

	// Window resets must not disturb the hook's epoch indexing.
	m.ResetStats()
	m.Record(3*epochL, 1) // closes epochs 2 and 3
	if len(got) != 3 {
		t.Fatalf("hook fired %d times after three rollovers", len(got))
	}
	if got[2].index != 3 {
		t.Errorf("index after ResetStats = %d, want 3", got[2].index)
	}
	// Clearing the hook stops delivery.
	m.SetBoundaryHook(nil)
	m.Record(5*epochL, 1)
	if len(got) != 3 {
		t.Error("hook fired after being cleared")
	}
}
