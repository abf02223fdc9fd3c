package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Trace event phases (a subset of the Chrome trace_event vocabulary).
const (
	PhaseInstant = byte('i') // a point event on the timeline
	PhaseCounter = byte('C') // a sampled counter track
)

// Trace categories used across the MC pipeline.
const (
	CatEpoch = "epoch" // bandwidth-monitor mode decisions
	CatMemo  = "memo"  // memoization-table hits/misses/evictions
	CatDRAM  = "dram"
	CatSim   = "sim"
)

// Arg is one integer argument attached to a trace event.
type Arg struct {
	Key string
	Val int64
}

// A constructs an Arg.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event is one traced occurrence, stamped with simulator picosecond
// time.
type Event struct {
	TS   int64 // simulated time in ps
	Ph   byte  // PhaseInstant or PhaseCounter
	Cat  string
	Name string
	Args []Arg
}

// DefaultTraceCap is the ring capacity used when NewTracer is given a
// non-positive one: 64k events, a few MB, enough for several epochs
// of dense pipeline activity.
const DefaultTraceCap = 1 << 16

// Tracer is a bounded ring buffer of events. When full, the oldest
// event is evicted for each new one. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver so
// call sites need no enabled-checks.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of oldest event
	n       int
	dropped Counter // registry-exportable so silent eviction is observable
}

// NewTracer builds a tracer holding up to capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit records one event at simulated time ts.
func (t *Tracer) Emit(ts int64, ph byte, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	e := Event{TS: ts, Ph: ph, Cat: cat, Name: name}
	if len(args) > 0 {
		e.Args = append([]Arg(nil), args...)
	}
	t.mu.Lock()
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
	} else {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
		t.dropped.Inc()
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were evicted to make room.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Value()
}

// RegisterMetrics exposes the ring's eviction count through a
// registry (trace_dropped_events_total), so truncation of the
// telemetry stream is itself observable on /metrics.
func (t *Tracer) RegisterMetrics(reg *Registry, labels ...Label) {
	if t == nil {
		return
	}
	reg.RegisterCounter("trace_dropped_events_total", &t.dropped, labels...)
}

// Events returns the buffered events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// chromeEvent is the trace_event JSON shape Perfetto and
// chrome://tracing load. ts is in microseconds.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the buffered events as Chrome trace_event
// JSON ("JSON Object Format"), with simulated picoseconds mapped onto
// the format's microsecond timestamps. Open the file at
// https://ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: tracing was not enabled")
	}
	evs := t.Events()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(evs)), DisplayTimeUnit: "ns"}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   string(rune(e.Ph)),
			TS:   float64(e.TS) / 1e6, // ps -> µs
			PID:  1,
			TID:  1,
		}
		if e.Ph == PhaseInstant {
			ce.S = "g" // global-scope instant: renders as a full-height marker
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]int64, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Observer bundles the two halves of the observability layer for
// threading through the simulator: a metrics registry and an optional
// tracer (nil when tracing is off).
type Observer struct {
	Metrics *Registry
	Trace   *Tracer
}

// NewObserver builds an observer. traceCap <= 0 disables tracing;
// otherwise it sets the event ring capacity.
func NewObserver(traceCap int) *Observer {
	o := &Observer{Metrics: NewRegistry()}
	if traceCap > 0 {
		o.Trace = NewTracer(traceCap)
	}
	return o
}
