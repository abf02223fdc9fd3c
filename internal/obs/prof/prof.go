// Package prof is the online hot-path profiler: lock-free, sampled
// streaming estimators of the latencies the engine's own control
// policies need to know about themselves.
//
// The design constraints are the same ones obs.Span answers for
// attribution, one level further down:
//
//   - never block: a sampled observation updates the EWMA with a CAS
//     loop and the histogram with atomic adds, so no sample is ever
//     dropped or waited for. The hot path performs one atomic add
//     (the sampling decision) per call in the common case.
//   - zero steady-state allocations: all estimator state is inline,
//     timestamps are monotonic int64 nanoseconds, and nothing escapes.
//   - constant memory: the EWMA is one word and the quantiles come
//     from an inline obs.Histogram, whose fixed log-linear layout
//     reads any quantile within 1/16 without a bin layout to guess.
//
// A Probe combines a 1-in-N sampler, an EWMA, and an obs.Histogram of
// the sampled stream, registered as the probe's series so /metrics and
// -metrics-json see live buckets. A Profiler is the fixed set of
// probes the engine stack exposes: pad-batch latency, MAC64 latency,
// shard service time, batch occupancy, and submit→wait latency. All
// methods are nil-safe, so a disabled profiler costs one nil check per
// site.
package prof

import (
	"math"
	"sync/atomic"
	"time"

	"counterlight/internal/obs"
)

// procStart anchors the package's monotonic clock; Nanotime readings
// are nanoseconds since process start (comparable only to each other).
var procStart = time.Now()

// Nanotime returns a monotonic nanosecond reading, allocation-free.
func Nanotime() int64 { return int64(time.Since(procStart)) }

// Probe is one sampled streaming estimator: it counts every
// observation and folds one in N into an EWMA and a histogram. All
// methods are nil-safe; a nil *Probe is a disabled probe.
type Probe struct {
	mask     uint64        // sample when count&mask == 0 (sampleEvery-1, pow2)
	n        atomic.Uint64 // total observations (including unsampled)
	ewmaBits atomic.Uint64 // float64 bits of the EWMA; 0 until the first sample
	hist     obs.Histogram // every sampled observation

	// Registry gauges, refreshed on every sampled observation.
	gEwma, gCount obs.Gauge
}

// alpha is the EWMA smoothing factor: each sample contributes 10%, so
// the estimate spans roughly the last 20 samples.
const alpha = 0.1

// NewProbe builds a probe sampling one in sampleEvery observations
// (rounded up to a power of two; values <= 1 sample everything).
func NewProbe(sampleEvery int) *Probe {
	every := uint64(1)
	for int(every) < sampleEvery {
		every <<= 1
	}
	return &Probe{mask: every - 1}
}

// Start begins one sampled timing: it counts the observation and
// returns a nonzero monotonic timestamp only when this observation
// was selected by the 1-in-N sampler (or 0 on a nil probe), so
// unsampled operations never read the clock.
func (p *Probe) Start() int64 {
	if p == nil {
		return 0
	}
	if p.n.Add(1)&p.mask != 0 {
		return 0
	}
	return Nanotime()
}

// Done completes a timing begun by Start; a zero start (unsampled or
// disabled) is a no-op.
func (p *Probe) Done(t0 int64) {
	if t0 == 0 {
		return
	}
	p.fold(float64(Nanotime() - t0))
}

// DoneN completes a timing that covered k items, observing the
// per-item latency (elapsed/k). Zero start or k <= 0 is a no-op.
func (p *Probe) DoneN(t0 int64, k int) {
	if t0 == 0 || k <= 0 {
		return
	}
	p.fold(float64(Nanotime()-t0) / float64(k))
}

// Observe counts one direct-valued observation (queue depth, batch
// occupancy, an externally measured duration), folding it into the
// estimators when the sampler selects it.
func (p *Probe) Observe(v int64) {
	if p == nil {
		return
	}
	if p.n.Add(1)&p.mask != 0 {
		return
	}
	p.fold(float64(v))
}

// fold adds one sampled observation to the EWMA and the histogram.
// The EWMA update retries its CAS instead of taking a lock, so
// concurrent samples are all folded in. An EWMA of exactly 0 reads as
// unseeded: the next sample re-seeds it.
func (p *Probe) fold(v float64) {
	for {
		old := p.ewmaBits.Load()
		e := v
		if old != 0 {
			prev := math.Float64frombits(old)
			e = prev + alpha*(v-prev)
		}
		if p.ewmaBits.CompareAndSwap(old, math.Float64bits(e)) {
			p.gEwma.Set(int64(e))
			break
		}
	}
	p.hist.Add(int64(v))
	p.gCount.Set(int64(p.n.Load()))
}

// EWMA returns the exponentially weighted moving average of the
// sampled observations (0 before the first sample or on nil).
func (p *Probe) EWMA() float64 {
	if p == nil {
		return 0
	}
	return math.Float64frombits(p.ewmaBits.Load())
}

// Count returns the total number of observations (sampled or not).
func (p *Probe) Count() uint64 {
	if p == nil {
		return 0
	}
	return p.n.Load()
}

// SampleEvery reports the probe's sampling period.
func (p *Probe) SampleEvery() uint64 {
	if p == nil {
		return 0
	}
	return p.mask + 1
}

// ProbeSnapshot is one probe's state reduced to JSON-able numbers.
// Quantiles are obs.Histogram readings over the sampled stream: at
// most 1/16 above the true value, never below it.
type ProbeSnapshot struct {
	Count   uint64  `json:"count"`
	Sampled uint64  `json:"sampled"`
	EWMA    float64 `json:"ewma"`
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	P99     int64   `json:"p99"`
}

// Snapshot reads the probe's current estimates.
func (p *Probe) Snapshot() ProbeSnapshot {
	if p == nil {
		return ProbeSnapshot{}
	}
	return ProbeSnapshot{
		Count:   p.n.Load(),
		Sampled: p.hist.Total(),
		EWMA:    p.EWMA(),
		P50:     p.hist.Quantile(0.50),
		P90:     p.hist.Quantile(0.90),
		P99:     p.hist.Quantile(0.99),
	}
}

// register binds the probe's histogram into a registry under name, and
// its gauges under name_stat with stat=ewma|count labels. The gauges
// refresh on sampled observations, so they lag the stream by at most
// one sampling period.
func (p *Probe) register(reg *obs.Registry, name string, labels ...obs.Label) {
	if p == nil {
		return
	}
	reg.RegisterHistogram(name, &p.hist, labels...)
	stat := func(s string, g *obs.Gauge) {
		ls := append(append([]obs.Label(nil), labels...), obs.L("stat", s))
		reg.RegisterGauge(name+"_stat", g, ls...)
	}
	stat("ewma", &p.gEwma)
	stat("count", &p.gCount)
}
