package core

import (
	"fmt"

	"counterlight/internal/cache"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/ctrblock"
	"counterlight/internal/dram"
	"counterlight/internal/energy"
	"counterlight/internal/epoch"
	"counterlight/internal/memoize"
	"counterlight/internal/obs"
	"counterlight/internal/sim"
	"counterlight/internal/stats"
	"counterlight/internal/trace"

	"strconv"
)

// Result is the measurement of one simulated window.
type Result struct {
	Scheme   Scheme
	Workload string

	WindowPS     int64
	Instructions uint64
	IPC          float64 // per core at 3.2 GHz

	LLCMisses     uint64
	LLCWritebacks uint64
	AvgMissLatNS  float64 // demand LLC miss latency, MC arrival -> data usable

	DRAM           dram.Stats
	BusUtilization float64
	EnergyPJ       float64
	EnergyPerInst  float64

	MemoHitRate float64

	// Counter-arrival distribution for counter-fetching schemes
	// (Fig. 8): counter-known time minus data-arrival time, one sample
	// per demand LLC miss. Bin edges in ns: <=0, (0,5], (5,10], >10.
	CounterLateHist *stats.Histogram
	CounterLateFrac float64 // fraction of misses where the counter arrived after the data

	// Writeback mode mix (Fig. 21): counted by Counter-light and the
	// counter-mode schemes (see CounterlessWBFraction).
	WBCounterless uint64
	WBTotal       uint64

	// EpochHistory is the closed-epoch timeline from the bandwidth
	// monitor (whole run including warmup): per-epoch utilization and
	// writeback-mode decisions.
	EpochHistory []epoch.Record
}

// CounterlessWBFraction returns the share of writebacks that
// Counter-light's epoch policy sent counterless. Only Counter-light
// writes in both modes; the counter-mode schemes count their
// writebacks as counter-mode ones, and Counterless and NoEnc count
// none. So a Counterless run reports 0 here, although every one of its
// writebacks is counterless.
func (r Result) CounterlessWBFraction() float64 {
	if r.WBTotal == 0 {
		return 0
	}
	return float64(r.WBCounterless) / float64(r.WBTotal)
}

// PerfNormalizedTo divides this run's instruction throughput by a
// baseline run's — the paper's "performance normalized to X".
func (r Result) PerfNormalizedTo(base Result) float64 {
	if base.Instructions == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(base.Instructions)
}

// coreState is one simulated core's architectural state.
type coreState struct {
	stream       trace.Stream
	time         int64
	outstanding  []int64 // completion times of in-flight loads
	lastLoadDone int64
	done         bool
}

// event is one schedulable action. Everything that touches DRAM runs
// through the time-ordered queue so state mutations happen in (near)
// timestamp order: the FCFS bus and bank model would otherwise charge
// earlier requests for later-issued traffic that happened to be
// processed first.
type event struct {
	kind  int    // see evKind constants
	core  int    // evCore only
	addr  uint64 // data address (or write address for evDRAMWrite)
	level int    // evTreeWalk: next tree level to touch
	dirty bool   // evTreeWalk: writeback walk (dirty) vs read verify
}

const (
	evCore      = iota // a core issues its next op
	evWriteback        // an LLC writeback arrives at the MC
	evCounter          // counter-block update for a writeback
	evTreeWalk         // one integrity-tree level of a walk
	evDRAMWrite        // a posted DRAM write (dirty metadata eviction)
	evSample           // periodic observability sample (tracer only)
)

// samplePeriod is how often the tracer samples queue depths (10 µs:
// ten samples per 100 µs epoch).
const samplePeriod = 10 * us

// simulator wires the hierarchy together for one run. All state is
// strictly per-run (the struct and everything it owns), so concurrent
// Run calls never share mutable state.
type simulator struct {
	cfg    Config
	q      sim.Queue[event]
	cores  []coreState
	l1, l2 []*cache.Cache
	pf     []cache.Prefetcher
	pfBuf  []uint64 // reused Observe buffer: prefetch targets of one miss
	l3     *cache.Cache
	ctrC   *cache.Cache
	dram   *dram.Channel
	mon    *epoch.Monitor
	memo   *memoize.Table
	layout *ctrblock.Store // address geometry for counter/tree blocks

	// pipe is the scheme's MC pipeline: all per-scheme read/write
	// timing behavior lives behind it (see scheme.go).
	pipe SchemePipeline

	measuring bool
	missLat   stats.Accumulator

	// Window-scoped counters. Like the caches' and the channel's, they
	// are plain fields bound to registry series through mirror, which
	// publish copies in at every closed epoch, after startWindow and at
	// the end of Run: live readers lag by at most one epoch, and the
	// registry is exact when Run returns.
	instr     uint64
	ctrLate   [len(counterLateBins)]uint64 // Fig. 8 arrival-delta bins
	llcMiss   uint64
	llcWB     uint64
	wbCls     uint64
	wbTotal   uint64
	memoHitsW uint64 // window-scoped memo lookups on the read path
	memoRefsW uint64
	mirror    *obs.Mirror

	// Observability plumbing (never affects timing).
	o          *obs.Observer
	tr         *obs.Tracer // nil when tracing is off
	now        int64       // timestamp of the event being processed
	qDepth     *obs.Gauge
	busBacklog *obs.Gauge

	// Live telemetry: pub receives one EpochSample per closed epoch
	// (nil when no recorder/server is attached, costing nothing).
	// metaReads/metaWrites count the scheme's counter-block and
	// integrity-tree DRAM traffic over the whole run — run-scoped,
	// like the epoch timeline, so adjacent samples difference cleanly.
	pub          obs.Publisher
	metaReads    uint64
	metaWrites   uint64
	modeSwitches uint64     // cumulative mode transitions (boundary + mid-epoch)
	lastEndMode  epoch.Mode // mode in effect when the previous epoch closed

	// history is the closed-epoch timeline (Result.EpochHistory),
	// filled by the monitor's boundary hook.
	history []epoch.Record
}

// counterLateEdges and counterLateBins classify Fig. 8's
// counter-arrival delta (counter ready time minus data ready time):
// bin i counts deltas in [edges[i-1], edges[i]), with negative deltas
// (counter first) in bin 0 and 10 ns or later in the last. This is the
// paper's classification, binned like stats.Histogram, not a latency
// estimate.
var (
	counterLateEdges = []int64{0, 5 * ns, 10 * ns}
	counterLateBins  = [...]string{"early", "0-5ns", "5-10ns", "10ns+"}
)

// Run simulates the workload under the configuration and returns the
// measurement-window results. Run keeps no state outside the local
// simulator value, so it is safe to call concurrently from multiple
// goroutines (sweep runners fan scheme×workload matrices out across
// cores); concurrent runs sharing one cfg.Obs registry must use
// distinct scheme labels, as RunPair does.
func Run(cfg Config, w trace.Workload) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := &simulator{cfg: cfg}
	s.o = cfg.Obs
	if s.o == nil {
		s.o = obs.NewObserver(0)
	}
	s.tr = s.o.Trace
	s.pub = cfg.Epochs

	var err error
	if s.l3, err = cache.New(cfg.L3Size, cfg.BlockSize, cfg.L3Ways); err != nil {
		return Result{}, err
	}
	if s.ctrC, err = cache.New(cfg.CounterCacheSize, cfg.BlockSize, cfg.CounterCacheWays); err != nil {
		return Result{}, err
	}
	dcfg := dram.DefaultConfig(cfg.BandwidthGBs)
	if cfg.RefreshEnabled {
		dcfg.TREFI = 3_900_000 // 3.9 µs
		dcfg.TRFC = 350_000    // 350 ns
	}
	if s.dram, err = dram.New(dcfg); err != nil {
		return Result{}, err
	}
	if s.mon, err = epoch.NewMonitor(cfg.EpochLen, s.dram.BurstTime(), cfg.Threshold); err != nil {
		return Result{}, err
	}
	if s.layout, err = ctrblock.New(cfg.MemorySize, cfg.BlockSize); err != nil {
		return Result{}, err
	}
	// The timing model does not need real AES results; a cheap mixer
	// keeps the table's values distinct.
	s.memo = memoize.New(cfg.MemoEntries, 0, func(c uint64) mix.Word {
		return mix.Word{Hi: c * 0x9e3779b97f4a7c15, Lo: ^c}
	})
	if s.pipe, err = newSchemePipeline(&s.cfg, s); err != nil {
		return Result{}, err
	}

	streams := w.NewStreams(cfg.Seed, cfg.Cores)
	s.cores = make([]coreState, cfg.Cores)
	s.l1 = make([]*cache.Cache, cfg.Cores)
	s.l2 = make([]*cache.Cache, cfg.Cores)
	s.pf = make([]cache.Prefetcher, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		s.cores[c].stream = streams[c]
		if s.l1[c], err = cache.New(cfg.L1Size, cfg.BlockSize, cfg.L1Ways); err != nil {
			return Result{}, err
		}
		if s.l2[c], err = cache.New(cfg.L2Size, cfg.BlockSize, cfg.L2Ways); err != nil {
			return Result{}, err
		}
		s.pf[c] = &cache.Composite{Prefetchers: []cache.Prefetcher{
			cache.NewNextLine(cfg.BlockSize, 2),
			cache.NewStride(cfg.BlockSize, 2),
		}}
	}

	s.registerMetrics()

	warmupEnd := cfg.WarmupTime
	end := cfg.WarmupTime + cfg.WindowTime

	if s.tr != nil {
		s.q.Push(samplePeriod, event{kind: evSample})
	}

	for c := range s.cores {
		s.q.Push(0, event{kind: evCore, core: c})
	}
	for {
		t, e, ok := s.q.Pop()
		if !ok {
			break
		}
		s.now = t
		if !s.measuring && t >= warmupEnd {
			s.startWindow()
		}
		switch e.kind {
		case evCore:
			if t >= end {
				s.cores[e.core].done = true
				continue
			}
			next := s.step(e.core)
			s.q.Push(next, event{kind: evCore, core: e.core})
		case evWriteback:
			// Posted traffic drains even past the window end so queued
			// work settles deterministically.
			s.mcWrite(e.addr, t)
		case evCounter:
			s.pipe.CounterUpdate(e.addr, t)
		case evTreeWalk:
			s.pipe.TreeWalkStep(e.addr, e.level, e.dirty, t)
		case evDRAMWrite:
			s.mon.Record(t, 1)
			s.metaWrites++
			s.dram.Access(e.addr, t, true)
		case evSample:
			s.sample(t)
			if t < end {
				s.q.Push(t+samplePeriod, event{kind: evSample})
			}
		}
	}

	s.mirror.Publish()
	return s.result(w.Name), nil
}

// registerMetrics exposes every subsystem's counters through the
// observer's registry, labeled with the scheme so normalized pairs
// (RunPair, clsim -baseline) can share one registry, and wires the
// tracer into the components that emit events from inside.
func (s *simulator) registerMetrics() {
	reg := s.o.Metrics
	m := obs.NewMirror(reg)
	s.mirror = m
	lbl := obs.L("scheme", s.cfg.Scheme.String())
	m.Counter("sim_instructions_total", &s.instr, lbl)
	m.Counter("sim_llc_misses_total", &s.llcMiss, lbl)
	m.Counter("sim_llc_writebacks_total", &s.llcWB, lbl)
	m.Counter("sim_wb_total", &s.wbTotal, lbl)
	m.Counter("sim_wb_counterless_total", &s.wbCls, lbl)
	m.Counter("sim_memo_read_hits_total", &s.memoHitsW, lbl)
	m.Counter("sim_memo_read_refs_total", &s.memoRefsW, lbl)
	for i, bin := range counterLateBins {
		m.Counter("sim_counter_late_total", &s.ctrLate[i], lbl, obs.L("bin", bin))
	}
	s.qDepth = reg.Gauge("sim_event_queue_depth", lbl)
	s.busBacklog = reg.Gauge("sim_dram_bus_backlog_ps", lbl)

	s.dram.RegisterMetrics(m, lbl)
	s.mon.RegisterMetrics(reg, lbl)
	s.memo.RegisterMetrics(reg, lbl)
	s.l3.RegisterMetrics(m, lbl, obs.L("level", "l3"))
	s.ctrC.RegisterMetrics(m, lbl, obs.L("level", "counter"))
	for c := range s.l1 {
		core := obs.L("core", strconv.Itoa(c))
		s.l1[c].RegisterMetrics(m, lbl, obs.L("level", "l1"), core)
		s.l2[c].RegisterMetrics(m, lbl, obs.L("level", "l2"), core)
	}

	m.Counter("sim_meta_reads_total", &s.metaReads, lbl)
	m.Counter("sim_meta_writes_total", &s.metaWrites, lbl)
	s.tr.RegisterMetrics(reg)

	s.mon.SetTracer(s.tr)
	s.mon.SetBoundaryHook(s.closeEpoch)
	if s.tr != nil {
		s.memo.SetEvictHook(func(key uint32) {
			s.tr.Emit(s.now, obs.PhaseInstant, obs.CatMemo, "memo_evict",
				obs.A("counter", int64(key)))
		})
	}
}

// maxEpochHistory bounds Result.EpochHistory.
const maxEpochHistory = 1 << 16

// closeEpoch is the monitor's boundary hook: it copies the counts into
// the registry, keeps the closed epoch in the run's timeline and
// publishes its telemetry sample when a publisher is attached.
func (s *simulator) closeEpoch(boundary int64, index uint64, rec epoch.Record) {
	s.mirror.Publish()
	if len(s.history) < maxEpochHistory {
		s.history = append(s.history, rec)
	}
	if s.pub != nil {
		s.publishEpoch(boundary, index, rec)
	}
}

// publishEpoch assembles and publishes the closed epoch's telemetry
// sample. It runs inside the monitor's roll and only reads simulator
// state, so — like the tracer — it cannot perturb the run.
func (s *simulator) publishEpoch(boundary int64, index uint64, rec epoch.Record) {
	if rec.StartMode != s.lastEndMode {
		s.modeSwitches++ // epoch-boundary transition
	}
	endMode := rec.StartMode
	if rec.SwitchedMid {
		endMode = epoch.Counterless
		s.modeSwitches++
	}
	s.lastEndMode = endMode

	es := obs.EpochSample{
		TS:           boundary,
		Epoch:        index,
		Utilization:  rec.Utilization,
		Mode:         rec.StartMode.String(),
		SwitchedMid:  rec.SwitchedMid,
		ModeSwitches: s.modeSwitches,
		MetaReads:    s.metaReads,
		MetaWrites:   s.metaWrites,
		QueueDepth:   int64(s.q.Len()),
		BusBacklogPS: s.dram.BusBacklog(boundary),
		Instructions: s.instr,
		Measuring:    s.measuring,
	}
	if s.memoRefsW > 0 {
		es.MemoHitRate = float64(s.memoHitsW) / float64(s.memoRefsW)
	}
	if s.measuring {
		if cycles := float64(boundary-s.cfg.WarmupTime) / 312.0; cycles > 0 {
			es.IPC = float64(es.Instructions) / float64(s.cfg.Cores) / cycles
		}
	}
	s.pub.PublishEpoch(es)
}

// sample is the periodic observability tick: queue-depth gauges and
// counter tracks for the tracer. It only reads simulator state, so it
// cannot perturb the run.
func (s *simulator) sample(t int64) {
	depth := int64(s.q.Len())
	backlog := s.dram.BusBacklog(t)
	s.qDepth.Set(depth)
	s.busBacklog.Set(backlog)
	s.tr.Emit(t, obs.PhaseCounter, obs.CatSim, "event_queue_depth", obs.A("value", depth))
	s.tr.Emit(t, obs.PhaseCounter, obs.CatDRAM, "bus_backlog_ps", obs.A("value", backlog))
}

// startWindow resets all window-scoped statistics at the end of warmup.
func (s *simulator) startWindow() {
	s.measuring = true
	s.dram.ResetStats()
	s.memo.ResetStats()
	s.mon.ResetStats()
	s.l3.ResetStats()
	s.ctrC.ResetStats()
	for c := range s.l1 {
		s.l1[c].ResetStats()
		s.l2[c].ResetStats()
	}
	s.instr = 0
	s.missLat = stats.Accumulator{}
	// Warmup samples must not pollute the Fig. 8 counter-arrival
	// histogram.
	s.ctrLate = [len(counterLateBins)]uint64{}
	s.llcMiss, s.llcWB = 0, 0
	s.wbCls, s.wbTotal = 0, 0
	s.memoHitsW, s.memoRefsW = 0, 0
	s.mirror.Publish()
}

// step executes one op on core c and returns the core's next-ready time.
func (s *simulator) step(c int) int64 {
	core := &s.cores[c]
	op := core.stream.Next(core.time)
	t := core.time + op.Think
	if op.Dependent && core.lastLoadDone > t {
		t = core.lastLoadDone
	}
	// Retire completed loads; block when the MLP window is full.
	s.retire(core, t)
	if len(core.outstanding) >= s.cfg.MLP {
		earliest := core.outstanding[0]
		for _, v := range core.outstanding {
			if v < earliest {
				earliest = v
			}
		}
		if earliest > t {
			t = earliest
		}
		s.retire(core, t)
	}

	done := s.access(c, op.Addr, op.Write, op.PC, t)
	if !op.Write {
		core.outstanding = append(core.outstanding, done)
		core.lastLoadDone = done
	}
	if s.measuring {
		s.instr += op.Instr
	}
	// One issue slot per op (3.2 GHz cycle).
	core.time = t + 312
	return core.time
}

func (s *simulator) retire(core *coreState, now int64) {
	kept := core.outstanding[:0]
	for _, v := range core.outstanding {
		if v > now {
			kept = append(kept, v)
		}
	}
	core.outstanding = kept
}

// access walks the cache hierarchy and returns when the data is usable.
func (s *simulator) access(c int, addr uint64, write bool, pc uint64, t int64) int64 {
	cfg := &s.cfg
	addr -= addr % cfg.BlockSize

	// L1.
	t1 := t + cfg.L1Lat
	if write {
		if hit, ready := s.l1[c].Write(addr, t1); hit {
			return ready
		}
	} else if hit, ready := s.l1[c].Lookup(addr, t1); hit {
		return ready
	}

	// L1 miss: train prefetchers on the demand stream.
	if cfg.PrefetchEnabled {
		s.pfBuf = s.pf[c].Observe(s.pfBuf[:0], addr, pc)
		for _, pa := range s.pfBuf {
			s.prefetch(c, pa, t1)
		}
	}

	// L2.
	t2 := t1 + cfg.L2Lat
	if hit, ready := s.l2[c].Lookup(addr, t2); hit {
		s.fillL1(c, addr, ready, write)
		return ready
	}

	// L3.
	t3 := t2 + cfg.L3Lat
	if hit, ready := s.l3.Lookup(addr, t3); hit {
		s.fillL2(c, addr, ready)
		s.fillL1(c, addr, ready, write)
		return ready
	}

	// Demand LLC miss -> memory controller.
	ready := s.mcRead(addr, t3, true)
	s.fillL3(addr, ready)
	s.fillL2(c, addr, ready)
	s.fillL1(c, addr, ready, write)
	return ready
}

// prefetch issues a non-blocking fill into L2/L3 if absent everywhere.
func (s *simulator) prefetch(c int, addr uint64, t int64) {
	addr -= addr % s.cfg.BlockSize
	if s.l2[c].Contains(addr) || s.l3.Contains(addr) {
		return
	}
	ready := s.mcRead(addr, t+s.cfg.L2Lat, false)
	s.fillL3(addr, ready)
	s.fillL2(c, addr, ready)
}

// fillL1, fillL2 and fillL3 insert a block that has just missed at
// that level, so each Insert takes the victim its miss picked.
func (s *simulator) fillL1(c int, addr uint64, ready int64, dirty bool) {
	if ev, ok := s.l1[c].Insert(addr, ready, dirty); ok && ev.Dirty {
		// Dirty L1 victim moves to L2 (mark or allocate dirty there).
		s.l2[c].Insert(ev.Addr, ready, true)
	}
}

func (s *simulator) fillL2(c int, addr uint64, ready int64) {
	if ev, ok := s.l2[c].Insert(addr, ready, false); ok && ev.Dirty {
		s.l3.Insert(ev.Addr, ready, true)
	}
}

func (s *simulator) fillL3(addr uint64, ready int64) {
	if ev, ok := s.l3.Insert(addr, ready, false); ok && ev.Dirty {
		// Post the writeback; it reaches the MC at the fill time and
		// is processed in global time order.
		s.q.Push(ready, event{kind: evWriteback, addr: ev.Addr})
	}
}

// mcRead is the memory controller's LLC-read-miss path: DRAM access
// plus the scheme pipeline's decryption timing (Figs. 7 and 13).
func (s *simulator) mcRead(addr uint64, tm int64, demand bool) int64 {
	s.mon.Record(tm, 1)
	dataDone := s.dram.Access(addr, tm, false)
	ready := s.pipe.ReadMiss(addr, tm, dataDone, demand)
	if demand && s.measuring {
		s.llcMiss++
		s.missLat.Add(ready - tm)
	}
	return ready
}

// mcWrite is the LLC-writeback path (posted: consumes bandwidth, never
// stalls the core). The data write is charged here; the scheme
// pipeline adds its metadata traffic.
func (s *simulator) mcWrite(addr uint64, tw int64) {
	s.mon.Record(tw, 1)
	s.dram.Access(addr, tw, true)
	if s.measuring {
		s.llcWB++
	}
	s.pipe.Writeback(addr, tw)
}

// traceMemo emits the memoization hit/miss event stream.
func (s *simulator) traceMemo(ctr uint32, hit bool) {
	if s.tr == nil {
		return
	}
	name := "memo_miss"
	if hit {
		name = "memo_hit"
	}
	s.tr.Emit(s.now, obs.PhaseInstant, obs.CatMemo, name, obs.A("counter", int64(ctr)))
}

// The simulator is the MCContext its scheme pipeline runs against.

func (s *simulator) Config() *Config { return &s.cfg }
func (s *simulator) Measuring() bool { return s.measuring }

func (s *simulator) DRAMRead(addr uint64, t int64) int64 {
	s.mon.Record(t, 1)
	s.metaReads++
	return s.dram.Access(addr, t, false)
}

func (s *simulator) PostDRAMWrite(t int64, addr uint64) {
	s.q.Push(t, event{kind: evDRAMWrite, addr: addr})
}

func (s *simulator) PostCounterUpdate(t int64, addr uint64) {
	s.q.Push(t, event{kind: evCounter, addr: addr})
}

func (s *simulator) PostTreeWalk(t int64, addr uint64, level int, dirty bool) {
	s.q.Push(t, event{kind: evTreeWalk, addr: addr, level: level, dirty: dirty})
}

func (s *simulator) CounterCache() *cache.Cache { return s.ctrC }
func (s *simulator) Layout() *ctrblock.Store    { return s.layout }

func (s *simulator) MemoLookup(ctr uint32) bool {
	_, hit := s.memo.Lookup(ctr)
	s.traceMemo(ctr, hit)
	if s.measuring {
		s.memoRefsW++
		if hit {
			s.memoHitsW++
		}
	}
	return hit
}

func (s *simulator) NextWriteCounter(old uint32) uint32 {
	return s.memo.NextWriteCounter(old)
}

func (s *simulator) WritebackMode(t int64) epoch.Mode {
	return s.mon.WritebackMode(t)
}

func (s *simulator) CounterArrival(delta int64) {
	if !s.measuring {
		return
	}
	i := 0
	for i < len(counterLateEdges) && delta >= counterLateEdges[i] {
		i++
	}
	s.ctrLate[i]++
}

func (s *simulator) CountWriteback(counterless bool) {
	if !s.measuring {
		return
	}
	s.wbTotal++
	if counterless {
		s.wbCls++
	}
}

// result assembles the window measurement.
func (s *simulator) result(workload string) Result {
	cfg := &s.cfg
	d := s.dram.Stats()
	meter, _ := energy.NewMeter(energy.DefaultParams())
	for i := uint64(0); i < d.RowMisses+d.RowConflicts; i++ {
		meter.AddActivate()
	}
	for i := uint64(0); i < d.Reads; i++ {
		meter.AddRead()
	}
	for i := uint64(0); i < d.Writes; i++ {
		meter.AddWrite()
	}
	totalPJ := meter.TotalPJ(cfg.WindowTime)

	ctrHist, _ := stats.FromBins(counterLateEdges, s.ctrLate[:])
	r := Result{
		Scheme:          cfg.Scheme,
		Workload:        workload,
		WindowPS:        cfg.WindowTime,
		Instructions:    s.instr,
		IPC:             float64(s.instr) / float64(cfg.Cores) / (float64(cfg.WindowTime) / 312.0),
		LLCMisses:       s.llcMiss,
		LLCWritebacks:   s.llcWB,
		AvgMissLatNS:    s.missLat.Mean() / 1000.0,
		DRAM:            d,
		BusUtilization:  float64(d.BusBusyPS) / float64(cfg.WindowTime),
		EnergyPJ:        totalPJ,
		CounterLateHist: ctrHist,
		WBCounterless:   s.wbCls,
		WBTotal:         s.wbTotal,
	}
	if r.Instructions > 0 {
		r.EnergyPerInst = totalPJ / float64(r.Instructions)
	}
	if s.memoRefsW > 0 {
		r.MemoHitRate = float64(s.memoHitsW) / float64(s.memoRefsW)
	}
	if ctrHist.Total() > 0 {
		r.CounterLateFrac = ctrHist.FractionAbove(0)
	}
	if r.BusUtilization > 1 {
		r.BusUtilization = 1
	}
	r.EpochHistory = s.history
	return r
}

// RunPair is a convenience for normalized results: it runs the scheme
// and the NoEnc baseline on the same workload and seed.
func RunPair(cfg Config, w trace.Workload) (scheme, baseline Result, err error) {
	scheme, err = Run(cfg, w)
	if err != nil {
		return
	}
	base := cfg
	base.Scheme = NoEnc
	baseline, err = Run(base, w)
	return
}

// String summarizes a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: instr=%d ipc=%.3f llcMiss=%d wb=%d missLat=%.1fns util=%.2f",
		r.Workload, r.Scheme, r.Instructions, r.IPC, r.LLCMisses, r.LLCWritebacks,
		r.AvgMissLatNS, r.BusUtilization)
}
