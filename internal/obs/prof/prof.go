// Package prof is the online hot-path profiler: lock-free, sampled
// latency histograms of the engine paths no other instrument times.
//
// The design constraints are the same ones obs.Span answers for
// attribution, one level further down:
//
//   - never block: a sampled observation is atomic adds into an
//     obs.Histogram, so no sample is ever dropped or waited for. The
//     hot path performs one atomic add (the sampling decision) per
//     call in the common case.
//   - zero steady-state allocations: all state is inline, timestamps
//     are monotonic int64 nanoseconds, and nothing escapes.
//   - constant memory: the histogram's fixed log-linear layout reads
//     any quantile within 1/16 without a bin layout to guess.
//
// A Probe is a 1-in-N sampler in front of an obs.Histogram, registered
// as the probe's series, so /metrics, /metrics.json and /api/profile
// read it from the registry like every other histogram. A Profiler is
// the fixed set of probes the engine stack exposes: pad-batch latency,
// MAC64 latency and submit→wait latency. All methods are nil-safe, so
// a disabled profiler costs one nil check per site.
package prof

import (
	"sync/atomic"
	"time"

	"counterlight/internal/obs"
)

// procStart anchors the package's monotonic clock; Nanotime readings
// are nanoseconds since process start (comparable only to each other).
var procStart = time.Now()

// Nanotime returns a monotonic nanosecond reading, allocation-free.
func Nanotime() int64 { return int64(time.Since(procStart)) }

// Probe is one sampled latency histogram: it counts every observation
// and times one in N. All methods are nil-safe; a nil *Probe is a
// disabled probe.
type Probe struct {
	mask uint64        // sample when count&mask == 0 (sampleEvery-1, pow2)
	n    atomic.Uint64 // total observations (including unsampled)
	hist obs.Histogram // every sampled observation
}

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
	p.hist.Add(Nanotime() - t0)
}

// DoneN completes a timing that covered k items, observing the
// per-item latency (elapsed/k). Zero start or k <= 0 is a no-op.
func (p *Probe) DoneN(t0 int64, k int) {
	if t0 == 0 || k <= 0 {
		return
	}
	p.hist.Add((Nanotime() - t0) / int64(k))
}

// Count returns the total number of observations (sampled or not).
func (p *Probe) Count() uint64 {
	if p == nil {
		return 0
	}
	return p.n.Load()
}

// Quantile reads quantile q of the sampled stream: at most 1/16 above
// the true value, never below it (0 before the first sample or on nil).
func (p *Probe) Quantile(q float64) int64 {
	if p == nil {
		return 0
	}
	return p.hist.Quantile(q)
}

// register binds the probe's histogram into reg under name.
func (p *Probe) register(reg *obs.Registry, name string, labels []obs.Label) {
	if p != nil {
		reg.RegisterHistogram(name, &p.hist, labels...)
	}
}
