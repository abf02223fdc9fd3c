package prof

import "counterlight/internal/obs"

// Default sampling periods. Cipher-level probes fire once per block
// (tens of millions of times per second), so they sample sparsely;
// the submit probe fires once per request and can afford denser
// sampling.
const (
	DefaultPadSample    = 64 // pad batches per sample
	DefaultMACSample    = 64 // MAC computations per sample
	DefaultSubmitSample = 32 // submit→wait round trips per sample
)

// Profiler is the fixed probe set the engine stack exposes: the
// latencies no other instrument measures.
//
//   - PadBatch: per-pad latency of the batched AES pad path (cipher
//     layer, DoneN over batch size) — measured on the running
//     backend, not derived from the AES round count.
//   - MAC: MAC64 latency (counter-mode OTP finalize and counterless
//     keccak alike).
//   - SubmitWait: submit→wait round-trip latency as the caller sees
//     it — the quantity the p99 SLO is written against.
//
// A nil *Profiler disables every probe (each field reads as nil).
type Profiler struct {
	Backend string // cipher backend label, "" if unknown

	PadBatch   *Probe
	MAC        *Probe
	SubmitWait *Probe
}

// New builds a profiler with default sampling periods. backend labels
// the registry series with the cipher backend whose latencies are
// being measured.
func New(backend string) *Profiler {
	return &Profiler{
		Backend:    backend,
		PadBatch:   NewProbe(DefaultPadSample),
		MAC:        NewProbe(DefaultMACSample),
		SubmitWait: NewProbe(DefaultSubmitSample),
	}
}

// Register binds every probe's histogram into reg as a series named
// prof_<probe>_ns, with a backend label when known; extra labels
// apply to all series.
func (pf *Profiler) Register(reg *obs.Registry, labels ...obs.Label) {
	if pf == nil || reg == nil {
		return
	}
	ls := append([]obs.Label(nil), labels...)
	if pf.Backend != "" {
		ls = append(ls, obs.L("backend", pf.Backend))
	}
	pf.PadBatch.register(reg, "prof_pad_batch_ns", ls)
	pf.MAC.register(reg, "prof_mac_ns", ls)
	pf.SubmitWait.register(reg, "prof_submit_wait_ns", ls)
}
