// Package dram models a DDR memory channel at transaction granularity:
// banked row buffers with tCL/tRCD/tRP timing, a shared data bus whose
// burst time is set by the channel bandwidth, and per-request
// completion times that reflect row hits, row misses, row conflicts,
// and bus contention.
//
// Table I's configuration: one channel, 8 ranks (×8 banks each),
// tCL = tRCD = tRP = 13.75 ns, and 25.6 GB/s (2.5 ns per 64-byte
// burst) or 6.4 GB/s (10 ns per burst) for the stress test. The bus
// serialization is what produces the bandwidth wall of Figs. 18/20;
// the row-state variance between a data access and its counter access
// is what produces Fig. 8's late-counter distribution.
package dram

import (
	"fmt"

	"counterlight/internal/obs"
)

// Config describes the channel geometry and timing. All times are in
// picoseconds.
type Config struct {
	Ranks        int
	BanksPerRank int
	RowBytes     uint64 // row-buffer (page) size per bank
	TCL          int64  // column access latency
	TRCD         int64  // row activate latency
	TRP          int64  // precharge latency
	BurstTime    int64  // data-bus occupancy per 64-byte transfer
	BlockSize    uint64

	// Refresh models periodic all-bank refresh: every TREFI, each
	// bank blocks for TRFC. Zero TREFI disables refresh (the default;
	// the evaluation's gem5 configs do the same, and refresh adds only
	// latency-tail noise to the figures).
	TREFI int64
	TRFC  int64
}

// DefaultConfig returns Table I's DRAM settings for the given channel
// bandwidth in GB/s (25.6 in the main evaluation, 6.4 in the stress
// test).
func DefaultConfig(bandwidthGBs float64) Config {
	return Config{
		Ranks:        8,
		BanksPerRank: 8,
		RowBytes:     8 * 1024,
		TCL:          13750,
		TRCD:         13750,
		TRP:          13750,
		BurstTime:    int64(64.0 / bandwidthGBs * 1000), // ps
		BlockSize:    64,
	}
}

// Stats counts DRAM events for the bandwidth and energy models.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed bank, activate needed
	RowConflicts uint64 // open different row: precharge + activate
	Refreshes    uint64 // accesses that waited for a refresh window
	BusBusyPS    int64  // accumulated data-bus occupancy
}

type bank struct {
	openRow     int64 // -1 when closed
	readyAt     int64 // earliest time the bank can start a new command
	refreshedAt int64 // start of the last refresh window applied
}

// Channel is one DRAM channel. Like a cache, it belongs to one
// goroutine: its event counts are plain fields, which RegisterMetrics
// binds to registry series that the owner publishes at its own sync
// points.
type Channel struct {
	cfg     Config
	banks   []bank
	busFree int64 // earliest time the shared data bus is free

	reads, writes uint64
	rowHits       uint64
	rowMisses     uint64
	rowConflicts  uint64
	refreshes     uint64
	busBusyPS     uint64
}

// New builds a channel from the config.
func New(cfg Config) (*Channel, error) {
	if cfg.Ranks <= 0 || cfg.BanksPerRank <= 0 || cfg.RowBytes == 0 ||
		cfg.BurstTime <= 0 || cfg.BlockSize == 0 {
		return nil, fmt.Errorf("dram: invalid config %+v", cfg)
	}
	n := cfg.Ranks * cfg.BanksPerRank
	ch := &Channel{cfg: cfg, banks: make([]bank, n)}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch, nil
}

// Stats returns a copy of the counters.
func (c *Channel) Stats() Stats {
	return Stats{
		Reads:        c.reads,
		Writes:       c.writes,
		RowHits:      c.rowHits,
		RowMisses:    c.rowMisses,
		RowConflicts: c.rowConflicts,
		Refreshes:    c.refreshes,
		BusBusyPS:    int64(c.busBusyPS),
	}
}

// ResetStats zeroes the counters (per measurement window).
func (c *Channel) ResetStats() {
	c.reads, c.writes = 0, 0
	c.rowHits, c.rowMisses, c.rowConflicts = 0, 0, 0
	c.refreshes, c.busBusyPS = 0, 0
}

// RegisterMetrics binds the channel's counters to series under the
// given labels; m.Publish copies them in.
func (c *Channel) RegisterMetrics(m *obs.Mirror, labels ...obs.Label) {
	m.Counter("dram_reads_total", &c.reads, labels...)
	m.Counter("dram_writes_total", &c.writes, labels...)
	m.Counter("dram_row_hits_total", &c.rowHits, labels...)
	m.Counter("dram_row_misses_total", &c.rowMisses, labels...)
	m.Counter("dram_row_conflicts_total", &c.rowConflicts, labels...)
	m.Counter("dram_refreshes_total", &c.refreshes, labels...)
	m.Counter("dram_bus_busy_ps_total", &c.busBusyPS, labels...)
}

// BusBacklog reports how far ahead of now the shared data bus is
// booked — the channel's queueing pressure, sampled by the tracer.
func (c *Channel) BusBacklog(now int64) int64 {
	b := c.busFree - now
	if b < 0 {
		b = 0
	}
	return b
}

// BurstTime exposes the per-access bus occupancy (the epoch monitor's
// access-time unit).
func (c *Channel) BurstTime() int64 { return c.cfg.BurstTime }

// mapAddr decomposes an address into bank index and row. Banks are
// interleaved at block granularity across ranks and banks so that
// consecutive blocks hit different banks (standard XOR-free
// interleaving), and the row is the address within a bank.
func (c *Channel) mapAddr(addr uint64) (bankIdx int, row int64) {
	blk := addr / c.cfg.BlockSize
	nBanks := uint64(len(c.banks))
	bankIdx = int(blk % nBanks)
	// Bytes per bank per row: RowBytes. Consecutive blocks in the same
	// bank are RowBytes apart in the bank's local space.
	local := blk / nBanks * c.cfg.BlockSize
	row = int64(local / c.cfg.RowBytes)
	return bankIdx, row
}

// Access issues a read or write for the block at addr arriving at the
// controller at time now. It returns the completion time: when read
// data has fully arrived at the controller, or when write data has
// been accepted by the bank. Bank state and bus occupancy advance.
func (c *Channel) Access(addr uint64, now int64, write bool) int64 {
	bi, row := c.mapAddr(addr)
	b := &c.banks[bi]

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	if c.cfg.TREFI > 0 {
		// Apply any refresh window that covers the start time: the
		// command waits until the refresh completes, and the row
		// buffer closes.
		refStart := start - start%c.cfg.TREFI
		if refStart > b.refreshedAt {
			b.refreshedAt = refStart
			if start < refStart+c.cfg.TRFC {
				start = refStart + c.cfg.TRFC
				b.openRow = -1
				c.refreshes++
			}
		}
	}

	var coreLatency int64
	switch {
	case b.openRow == row:
		c.rowHits++
		coreLatency = c.cfg.TCL
	case b.openRow == -1:
		c.rowMisses++
		coreLatency = c.cfg.TRCD + c.cfg.TCL
	default:
		c.rowConflicts++
		coreLatency = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
	}
	b.openRow = row

	dataReady := start + coreLatency
	// The shared data bus serves bursts FCFS by arrival time: each
	// request reserves the next burst slot from when it arrives at the
	// controller. A request whose bank is still busy past its slot
	// transfers when the bank finishes instead (the slot goes idle);
	// this avoids head-of-line blocking the real controller's queue
	// reordering would also avoid, while keeping the hard bandwidth
	// ceiling of one burst per BurstTime.
	slot := c.busFree
	if now > slot {
		slot = now
	}
	slot += c.cfg.BurstTime
	c.busFree = slot
	done := dataReady + c.cfg.BurstTime
	if slot > done {
		done = slot
	}
	c.busBusyPS += uint64(c.cfg.BurstTime)

	// The bank stays busy until the burst completes; writes add a
	// write-recovery hold modeled as one extra burst time.
	b.readyAt = done
	if write {
		b.readyAt += c.cfg.BurstTime
		c.writes++
	} else {
		c.reads++
	}
	return done
}

// RowState reports the row-buffer outcome the next access to addr
// would see, without issuing it (used by tests and diagnostics).
func (c *Channel) RowState(addr uint64) string {
	bi, row := c.mapAddr(addr)
	switch {
	case c.banks[bi].openRow == row:
		return "hit"
	case c.banks[bi].openRow == -1:
		return "miss"
	default:
		return "conflict"
	}
}

// BusUtilization returns the fraction of wall-clock time the data bus
// was busy over the interval [0, now].
func (c *Channel) BusUtilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(c.busBusyPS) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}
