// Package obs is the simulator's unified observability layer: a
// metrics registry and a sim-time event tracer shared by every stage
// of the memory-controller pipeline.
//
// # Metrics
//
// A Registry holds named, optionally labeled series of three
// instrument kinds: Counter (monotonic uint64), Gauge (int64 level),
// and Histogram (log-linear over [0, 2^40): exact below 32, then 16
// linear sub-buckets per power of two, plus an overflow bucket, so any
// quantile reads at most 1/16 high). All three are ready to use as
// zero values. Instruments increment through atomic operations, so
// hot-path emission is lock-free and safe under `go test -race`.
// Components own their instruments and register them into a shared
// registry (RegisterCounter et al.), keeping their legacy Stats()
// accessors as thin views over the same storage; ad-hoc series can be
// created in place with the get-or-create accessors (Counter, Gauge,
// Histogram). A single-goroutine hot path that cannot afford a locked
// add per event counts in plain fields and binds them through a
// Mirror, whose Publish copies them into their series at the owner's
// sync points.
//
// Snapshot() produces a deterministic, sorted copy of every series,
// which WritePrometheus renders in the Prometheus text exposition
// format and WriteJSON as a stable JSON document (re-readable with
// ReadSnapshot, e.g. by `clreport -compare`).
//
// # Tracing
//
// A Tracer is a bounded ring buffer of typed events stamped with
// simulator picosecond time: epoch mode switches, memoization-table
// hits/misses/evictions, ECC correction attempts, counter saturation,
// and periodic DRAM queue-depth samples. When the buffer fills, the
// oldest events are evicted (Dropped() counts them). A nil *Tracer is
// valid and drops every Emit, so call sites need no guards.
// WriteChromeTrace exports the buffer as Chrome trace_event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Observability never perturbs the simulation: instruments and events
// are write-only from the model's point of view, and the periodic
// sampler reads simulator state without advancing it.
package obs
