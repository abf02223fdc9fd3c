package obs

// EpochSample is the per-epoch telemetry tuple published at every
// closed epoch boundary of the bandwidth monitor — the fixed record
// the live-telemetry recorder buffers and the monitoring server
// streams. Cumulative fields (instructions, traffic, switches) count
// from the start of the run, so consumers can difference adjacent
// samples for per-epoch rates.
type EpochSample struct {
	// TS is the epoch boundary in simulated picoseconds.
	TS int64 `json:"ts_ps"`
	// Epoch is the 1-based index of the epoch that just closed.
	Epoch uint64 `json:"epoch"`
	// Utilization is the closed epoch's access-count utilization
	// (accesses / channel capacity), the quantity the mode threshold
	// compares against.
	Utilization float64 `json:"utilization"`
	// Mode is the writeback mode the closed epoch started in
	// ("counter" or "counterless").
	Mode string `json:"mode"`
	// SwitchedMid reports a mid-epoch counter->counterless fallback
	// inside the closed epoch.
	SwitchedMid bool `json:"switched_mid"`
	// ModeSwitches is the cumulative mid-epoch fallback count.
	ModeSwitches uint64 `json:"mode_switches"`
	// MemoHitRate is the RMCC memoization table's cumulative read-path
	// hit rate (0 when no lookups have happened yet).
	MemoHitRate float64 `json:"memo_hit_rate"`
	// MetaReads / MetaWrites count the scheme's cumulative
	// counter-block and integrity-tree overhead traffic on the DRAM
	// channel (zero for schemes without counter metadata).
	MetaReads  uint64 `json:"meta_reads"`
	MetaWrites uint64 `json:"meta_writes"`
	// QueueDepth is the simulator event-queue depth at the boundary —
	// the closest thing the model has to an MC request queue.
	QueueDepth int64 `json:"queue_depth"`
	// BusBacklogPS is the DRAM data-bus backlog (how far the bus is
	// scheduled ahead of sim time) at the boundary, in picoseconds.
	BusBacklogPS int64 `json:"bus_backlog_ps"`
	// Instructions / IPC are the measurement window's progress so far
	// (zero during warmup).
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	// Measuring reports whether the boundary fell inside the
	// measurement window (false during warmup).
	Measuring bool `json:"measuring"`
}

// Publisher receives the per-epoch telemetry stream. Implementations
// must be cheap and must never block: PublishEpoch is called from
// inside the simulator's event loop (though only ~once per 100 µs of
// simulated time), and — like every obs hook — must not influence
// timing. The simulator skips all sample assembly when no publisher
// is attached, keeping the hot path allocation-free.
type Publisher interface {
	PublishEpoch(EpochSample)
}

// teePublisher fans one epoch stream out to several publishers.
type teePublisher []Publisher

func (t teePublisher) PublishEpoch(s EpochSample) {
	for _, p := range t {
		p.PublishEpoch(s)
	}
}

// Tee combines publishers into one that forwards every sample to each
// in order. Nil entries are dropped; Tee() of nothing (or only nils)
// returns nil, so callers can build chains unconditionally.
func Tee(ps ...Publisher) Publisher {
	var t teePublisher
	for _, p := range ps {
		if p != nil {
			t = append(t, p)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

// PublisherFunc adapts a function to the Publisher interface.
type PublisherFunc func(EpochSample)

// PublishEpoch calls f.
func (f PublisherFunc) PublishEpoch(s EpochSample) { f(s) }
