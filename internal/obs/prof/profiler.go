package prof

import "counterlight/internal/obs"

// Default sampling periods. Cipher-level probes fire once per block
// (tens of millions of times per second), so they sample sparsely;
// pool-level probes fire once per batch or request and can afford
// denser sampling.
const (
	DefaultPadSample    = 64 // pad batches per sample
	DefaultMACSample    = 64 // MAC computations per sample
	DefaultPoolSample   = 16 // batches / submits per sample
	DefaultSubmitSample = 32 // submit→wait round trips per sample
)

// Profiler is the fixed probe set the engine stack exposes: what the
// adaptive watermark policy and the SLO evaluator need to know about
// the hot path, and nothing more.
//
//   - PadBatch: per-pad latency of the batched AES pad path (cipher
//     layer, DoneN over batch size) — measured on the running
//     backend, not derived from the AES round count.
//   - MAC: MAC64 latency (counter-mode OTP finalize and counterless
//     keccak alike).
//   - Service: per-op shard service time (mcpool worker, batch
//     elapsed / ops).
//   - Occupancy: ops per drained batch (direct-valued).
//   - SubmitWait: submit→wait round-trip latency as the caller sees
//     it — the quantity the p99 SLO is written against.
//
// A nil *Profiler disables every probe (each field reads as nil).
type Profiler struct {
	Backend string // cipher backend label, "" if unknown

	PadBatch   *Probe
	MAC        *Probe
	Service    *Probe
	Occupancy  *Probe
	SubmitWait *Probe
}

// New builds a profiler with default sampling periods. backend labels
// the registry series (and the /api/profile payload) with the cipher
// backend whose latencies are being measured.
func New(backend string) *Profiler {
	return &Profiler{
		Backend:    backend,
		PadBatch:   NewProbe(DefaultPadSample),
		MAC:        NewProbe(DefaultMACSample),
		Service:    NewProbe(DefaultPoolSample),
		Occupancy:  NewProbe(DefaultPoolSample),
		SubmitWait: NewProbe(DefaultSubmitSample),
	}
}

// Register binds every probe into reg: a histogram series named
// prof_<probe>_{ns,ops} plus prof_<probe>_{ns,ops}_stat gauges
// (stat=ewma|count), with a backend label when known; extra labels
// apply to all series.
func (pf *Profiler) Register(reg *obs.Registry, labels ...obs.Label) {
	if pf == nil || reg == nil {
		return
	}
	ls := append([]obs.Label(nil), labels...)
	if pf.Backend != "" {
		ls = append(ls, obs.L("backend", pf.Backend))
	}
	pf.PadBatch.register(reg, "prof_pad_batch_ns", ls...)
	pf.MAC.register(reg, "prof_mac_ns", ls...)
	pf.Service.register(reg, "prof_service_ns", ls...)
	pf.Occupancy.register(reg, "prof_batch_occupancy_ops", ls...)
	pf.SubmitWait.register(reg, "prof_submit_wait_ns", ls...)
}

// Snapshot is the JSON shape served by /api/profile and embedded in
// clserve -metrics-json output.
type Snapshot struct {
	Backend    string        `json:"backend,omitempty"`
	PadBatch   ProbeSnapshot `json:"pad_batch_ns"`
	MAC        ProbeSnapshot `json:"mac_ns"`
	Service    ProbeSnapshot `json:"service_ns"`
	Occupancy  ProbeSnapshot `json:"batch_occupancy_ops"`
	SubmitWait ProbeSnapshot `json:"submit_wait_ns"`
}

// Snapshot captures every probe's current estimates (zero value on a
// nil profiler).
func (pf *Profiler) Snapshot() Snapshot {
	if pf == nil {
		return Snapshot{}
	}
	return Snapshot{
		Backend:    pf.Backend,
		PadBatch:   pf.PadBatch.Snapshot(),
		MAC:        pf.MAC.Snapshot(),
		Service:    pf.Service.Snapshot(),
		Occupancy:  pf.Occupancy.Snapshot(),
		SubmitWait: pf.SubmitWait.Snapshot(),
	}
}
