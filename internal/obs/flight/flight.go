// Package flight is the always-on flight recorder: a bounded
// lock-free ring of recent annotated events that can be dumped as
// JSON after the fact — on demand, on SIGQUIT, or automatically by
// the check harness when a differential mismatch occurs.
//
// The recorder answers the question the metrics registry cannot:
// "what was the engine doing in the moments before this failure?"
// Counters aggregate; the ring keeps the last N concrete events
// (degradations, mode and epoch switches, fault injections, sampled
// submits) with their relative timestamps and shard/address
// context, at a cost low enough to leave on in production runs: one
// atomic add plus a few stores per event, no locks, no allocations.
//
// Writers never block and never fail; when the ring wraps, the oldest
// events are overwritten and counted as evicted. Snapshot detects
// slots that are mid-write (torn) by a sequence protocol and skips
// them rather than waiting.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"counterlight/internal/obs"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindNote: free-form marker (A/B meaning depends on the caller).
	KindNote Kind = iota
	// KindSubmit: sampled request submission (Addr = block address,
	// A = op kind, B = queue depth at submit).
	KindSubmit
	// KindDegrade: an Auto write demoted to counterless by its shard's
	// epoch monitor (Addr = block address, A = the shard's busy ns in
	// the current epoch, B = the busy-ns threshold).
	KindDegrade
	// KindModeSwitch: a shard's resolved write mode changed
	// (A = old mode, B = new mode).
	KindModeSwitch
	// KindEpochSwitch: the epoch monitor changed start-of-epoch mode
	// (A = old mode, B = new mode).
	KindEpochSwitch
	// KindFault: a fault was injected (Addr = site, A = fault kind).
	KindFault
	// KindDivergence: the check harness observed a differential
	// mismatch (Addr = op address, A = op index).
	KindDivergence
	// KindHealth: an SLO evaluation changed state (A = old, B = new).
	KindHealth
	// KindCrash: an NVM persistence domain lost power (A = persistence
	// step at which the crash fired, B = journal sequence).
	KindCrash
	// KindRecovery: NVM recovery completed (A = journal entries
	// replayed, B = seq of the snapshot slot recovered from).
	KindRecovery
	// KindJournal: one journal entry from the tail of a failing
	// shard's journal, dumped so a divergence report is self-contained
	// (Addr = op address, A = op tag, B = journal seq).
	KindJournal
)

var kindNames = [...]string{
	KindNote:        "note",
	KindSubmit:      "submit",
	KindDegrade:     "degrade",
	KindModeSwitch:  "mode_switch",
	KindEpochSwitch: "epoch_switch",
	KindFault:       "fault",
	KindDivergence:  "divergence",
	KindHealth:      "health",
	KindCrash:       "crash",
	KindRecovery:    "recovery",
	KindJournal:     "journal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded moment. Fixed-size and self-contained so a
// slot write is a handful of stores; A and B are kind-specific
// annotations (see the Kind constants).
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"t_ns"` // nanoseconds since process start
	Kind   Kind   `json:"-"`
	Shard  int32  `json:"shard"`
	Addr   uint64 `json:"addr"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// MarshalJSON emits the kind as its string name alongside the fixed
// fields, so dumps read without the enum table at hand.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seq    uint64 `json:"seq"`
		TimeNs int64  `json:"t_ns"`
		Kind   string `json:"kind"`
		Shard  int32  `json:"shard"`
		Addr   uint64 `json:"addr"`
		A      int64  `json:"a"`
		B      int64  `json:"b"`
	}
	return json.Marshal(wire{e.Seq, e.TimeNs, e.Kind.String(), e.Shard, e.Addr, e.A, e.B})
}

var procStart = time.Now()

// nanotime is the recorder's monotonic clock (ns since process start).
func nanotime() int64 { return int64(time.Since(procStart)) }

// slot is one ring cell. seq doubles as the commit protocol: 0 marks
// a slot mid-write (dirty); a committed slot stores the 1-based event
// sequence that wrote it. The payload fields are individual atomics —
// a seqlock over plain memory would be invalid under the Go memory
// model — with kind and shard packed into one word.
type slot struct {
	seq     atomic.Uint64
	timeNs  atomic.Int64
	kindShd atomic.Uint64 // kind<<32 | uint32(shard)
	addr    atomic.Uint64
	a, b    atomic.Int64
}

func (sl *slot) store(ev Event) {
	sl.timeNs.Store(ev.TimeNs)
	sl.kindShd.Store(uint64(ev.Kind)<<32 | uint64(uint32(ev.Shard)))
	sl.addr.Store(ev.Addr)
	sl.a.Store(ev.A)
	sl.b.Store(ev.B)
}

func (sl *slot) load(seq uint64) Event {
	ks := sl.kindShd.Load()
	return Event{
		Seq:    seq,
		TimeNs: sl.timeNs.Load(),
		Kind:   Kind(ks >> 32),
		Shard:  int32(uint32(ks)),
		Addr:   sl.addr.Load(),
		A:      sl.a.Load(),
		B:      sl.b.Load(),
	}
}

// Ring is the bounded lock-free event buffer (MPMC writers, snapshot
// readers). A nil *Ring is a disabled recorder: every method no-ops.
type Ring struct {
	slots []slot
	mask  uint64
	seq   atomic.Uint64 // 1-based global event sequence
}

// NewRing builds a recorder holding the most recent size events
// (rounded up to a power of two, minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Size reports the ring capacity.
func (r *Ring) Size() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record appends one event. Never blocks, never allocates; wrapping
// overwrites the oldest slot.
func (r *Ring) Record(kind Kind, shard int32, addr uint64, a, b int64) {
	if r == nil {
		return
	}
	s := r.seq.Add(1)
	sl := &r.slots[s&r.mask]
	sl.seq.Store(0) // dirty: snapshots skip this slot until committed
	sl.store(Event{TimeNs: nanotime(), Kind: kind, Shard: shard, Addr: addr, A: a, B: b})
	sl.seq.Store(s)
}

// Note records a free-form marker event.
func (r *Ring) Note(shard int32, a, b int64) { r.Record(KindNote, shard, 0, a, b) }

// Recorded returns the total number of events ever recorded.
func (r *Ring) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Evicted returns how many events have been overwritten by wrapping.
func (r *Ring) Evicted() uint64 {
	if r == nil {
		return 0
	}
	s := r.seq.Load()
	if n := uint64(len(r.slots)); s > n {
		return s - n
	}
	return 0
}

// Snapshot copies the currently retained events in sequence order.
// Slots being written concurrently (or overwritten during the scan)
// are skipped — the snapshot is a best-effort consistent sample, the
// right trade for a diagnostic dump taken while writers keep running.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		seq := sl.seq.Load()
		if seq == 0 {
			continue // never written, or mid-write
		}
		ev := sl.load(seq)
		// Re-check: if the sequence moved while we copied, the copy
		// may be torn — drop it.
		if sl.seq.Load() != seq {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump is the JSON shape written by WriteJSON/DumpFile and served
// over HTTP.
type Dump struct {
	Recorded uint64  `json:"recorded"`
	Evicted  uint64  `json:"evicted"`
	Size     int     `json:"size"`
	Events   []Event `json:"events"`
}

func (r *Ring) dump() Dump {
	return Dump{Recorded: r.Recorded(), Evicted: r.Evicted(), Size: r.Size(), Events: r.Snapshot()}
}

// WriteJSON writes the recorder state as indented JSON.
func (r *Ring) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.dump())
}

// DumpFile writes the recorder state to path (0644, truncating).
func (r *Ring) DumpFile(path string) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RegisterMetrics exposes the recorder's counters in reg.
func (r *Ring) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if r == nil || reg == nil {
		return
	}
	// The registry has no pull hook, so these gauges hold the values
	// as of the last RegisterMetrics/RefreshMetrics call; callers
	// refresh before snapshots.
	reg.Gauge("flight_recorded_total", labels...).Set(int64(r.Recorded()))
	reg.Gauge("flight_evicted_total", labels...).Set(int64(r.Evicted()))
}

// RefreshMetrics re-publishes the recorder counters into reg (same
// series RegisterMetrics created).
func (r *Ring) RefreshMetrics(reg *obs.Registry, labels ...obs.Label) {
	if r == nil || reg == nil {
		return
	}
	reg.Gauge("flight_recorded_total", labels...).Set(int64(r.Recorded()))
	reg.Gauge("flight_evicted_total", labels...).Set(int64(r.Evicted()))
}
