// Package mcpool is the thread-safe, bank-sharded concurrent memory
// controller: it runs one core.Engine per shard behind a lock-striped
// shard array and a batching request frontend, turning the strictly
// single-threaded functional engine into a service that absorbs
// genuinely concurrent traffic.
//
// Sharding follows the DRAM bank-group interleave (internal/dram maps
// consecutive blocks to consecutive banks): shard = block index mod
// shard count, so every data block has exactly one shard, and a
// counter block's data blocks span every shard. What makes the
// striping sound is that each shard owns a private core.Engine — its
// own ctrblock.Store, counter cache and integrity tree — which only
// that shard's worker touches, under the shard lock. No engine state
// is shared between shards, so no counter update can be lost.
// Each shard also owns a private RMCC memoization table, so the pool
// as a whole is a sharded LRU over counter-AES results.
//
// The frontend queues requests per shard in bounded channels —
// Submit blocks when a shard's queue is full (backpressure) — and a
// per-shard worker drains them in FIFO batches, applying each batch
// under one acquisition of the shard lock. Writebacks submitted in
// Auto mode implement the software analogue of the paper's §IV-B
// bandwidth monitor: when the shard's queue depth sits at or above
// the configured watermark at apply time, the writeback gracefully
// degrades to counterless mode, shedding counter and integrity-tree
// work exactly when the controller is saturated.
package mcpool

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/ctrblock"
	"counterlight/internal/epoch"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// ErrClosed is returned by the submit entry points once Close has been
// called.
var ErrClosed = errors.New("mcpool: pool is closed")

// OpKind selects what a Request does.
type OpKind uint8

const (
	// OpRead fetches, verifies, and decrypts a block.
	OpRead OpKind = iota
	// OpWrite encrypts and stores a block.
	OpWrite
	// OpFault XORs a pattern into one chip of a stored block (the
	// differential harness's fault channel).
	OpFault

	// opBarrier is FlushBarrier's internal fence; it carries no work
	// and is never journaled.
	opBarrier OpKind = 255
)

// Request is one operation submitted to the pool.
type Request struct {
	Kind OpKind
	Addr uint64 // block-aligned byte address
	VM   int    // write: VM whose key a counterless write uses

	// Mode is the writeback mode an explicit write requests. When
	// Auto is set the pool decides instead: counter mode normally,
	// counterless when the owning shard's queue depth has reached the
	// watermark (§IV-B analogue). Auto-mode results depend on load and
	// are therefore not deterministic across runs; explicit modes are.
	Mode epoch.Mode
	Auto bool

	Data cipher.Block // write payload

	Chip    int    // fault: target chip
	Pattern uint64 // fault: XOR pattern

	// Tag is carried verbatim into the journal entry, letting callers
	// (internal/check) map applied operations back to program indices.
	Tag any
}

// Response is the outcome of one applied Request.
type Response struct {
	Plain    cipher.Block  // read: decrypted data
	Info     core.ReadInfo // read: service detail
	Mode     epoch.Mode    // write: mode actually stored (after Auto and §IV-C forcing)
	Degraded bool          // write: Auto demoted to counterless by the watermark
	Err      error
}

// Future is the pending result of a Submit. Wait blocks until the
// owning shard applies the request; it is safe to call repeatedly and
// from multiple goroutines.
type Future struct {
	ch   chan Response
	once sync.Once
	resp Response
}

func newFuture() *Future { return &Future{ch: make(chan Response, 1)} }

// Wait returns the response, blocking until the request is applied.
func (f *Future) Wait() Response {
	f.once.Do(func() { f.resp = <-f.ch })
	return f.resp
}

// Config sizes the pool.
type Config struct {
	// Shards is the number of engine shards (default DefaultShards).
	// Shard routing is block-interleaved: shard = (Addr/64) mod Shards.
	Shards int
	// QueueDepth bounds each shard's request queue (default 256);
	// Submit blocks beyond it.
	QueueDepth int
	// BatchMax caps how many queued requests one shard-lock
	// acquisition applies (default 32).
	BatchMax int
	// Watermark is the queue depth at which Auto writebacks degrade
	// to counterless. 0 means the default: 3/4 of QueueDepth, but
	// never below 2 — for QueueDepth 1 or 2 the default is QueueDepth
	// itself, so tiny queues degrade only when genuinely full rather
	// than on every pipelined Auto write. Any negative value disables
	// degradation entirely (-1 by convention). Ignored when
	// AdaptiveWatermark is on.
	Watermark int
	// AdaptiveWatermark replaces the static watermark with the
	// measurement-driven policy: the per-op service time measured by
	// the profiler's Service probe (EWMA) is converted, Little's-law
	// style, into the backlog that fits inside TargetDelayNs, clamped
	// to [1, QueueDepth] and hysteresis-damped. Adaptation only moves
	// the knee at which Auto writebacks degrade — explicit-mode
	// requests and all ciphertext are untouched (check.ConcurrentReplay
	// proves bit-identity with adaptation racing). Overrides Watermark.
	AdaptiveWatermark bool
	// TargetDelayNs is the queueing-delay objective the adaptive
	// watermark steers toward (default 250µs): the pool starts
	// shedding counter/tree work when the measured backlog drain time
	// would exceed it.
	TargetDelayNs int64
	// AdaptEvery is how many drained batches a shard waits between
	// watermark re-evaluations (default 32).
	AdaptEvery int
	// Profile attaches an online profiler: pad/MAC probes are wired
	// into every shard engine's ciphers, and the pool feeds the
	// Service, Occupancy, and SubmitWait probes. Required input of the
	// adaptive watermark — when AdaptiveWatermark is set and Profile
	// is nil, the pool creates one (see Pool.Profiler). Purely
	// observational on its own.
	Profile *prof.Profiler
	// Flight attaches a flight recorder: degradations, watermark
	// moves, stored-mode switches, fault injections, and sampled
	// submits are recorded into the ring. Nil disables recording.
	Flight *flight.Ring
	// Journal has no effect. The persistent journal (Persist) is the
	// pool's only journal; the field remains until its last setter
	// drops it.
	Journal bool
	// Persist keeps each shard's journal in the persistent wire format
	// (journal.go): every applied op is encoded with its resolved
	// counter/metadata state, resulting codeword, error bit and
	// response digest, so a fresh engine can be rebuilt from the bytes
	// alone after a crash (Entry.Apply) and a verifier can replay the
	// shard's apply order against its responses. Off by default:
	// journals grow with traffic.
	Persist bool
	// Attribution enables per-op latency attribution: every Submit
	// gets a pooled obs.Span that decomposes its end-to-end latency
	// into queue / batch / service / writeback stages, recorded into
	// per-shard histograms (see StageNames). Off by default; when off
	// the hot path pays one nil check per stage. Attribution is
	// strictly an observer — enabling it changes no engine result and
	// no journal entry (check.ConcurrentReplay proves this).
	Attribution bool
	// Engine configures each shard's core.Engine. The zero value
	// means core.DefaultEngineOptions(). Every shard engine spans the
	// full address space; routing keeps their written sets disjoint.
	Engine core.EngineOptions
}

// Pool is the sharded concurrent engine.
type Pool struct {
	cfg    Config
	shards []*shard

	mu     sync.RWMutex // guards closed vs. in-flight Submits
	closed bool
	wg     sync.WaitGroup

	submitted obs.Counter
	completed obs.Counter
	degraded  obs.Counter
	maxDepth  atomic.Int64
	depthHWM  obs.Gauge // registry view of maxDepth

	// Self-observation. The probe pointers are copies of the
	// profiler's fields so a disabled profiler costs one nil check
	// per site (probe methods are nil-safe; profiler field access is
	// not).
	pf         *prof.Profiler
	pService   *prof.Probe
	pOccupancy *prof.Probe
	pSubmit    *prof.Probe
	rec        *flight.Ring
	recN       atomic.Uint64 // submit-sampling counter for the recorder

	// Adaptive-watermark state: the live watermark every shard's
	// apply consults, plus move accounting.
	wm      atomic.Int64
	wmGauge obs.Gauge
	wmMoves obs.Counter
}

type shard struct {
	id  int
	q   chan submission
	mu  sync.Mutex
	eng *core.Engine

	// lastMode tracks the mode each block was last stored in, to
	// count §IV-B-style mode switches under concurrent traffic.
	lastMode map[uint64]epoch.Mode

	// Journal state (Config.Persist): the apply seq and the encoded
	// journal bytes a recovery would rebuild from.
	seq  uint64
	plog []byte

	depth        obs.Gauge
	batches      obs.Counter
	contention   obs.Counter
	modeSwitches obs.Counter
	batchSize    obs.Histogram
	attrib       *obs.Attributor // nil unless Config.Attribution

	// sinceAdapt counts drained batches toward the next watermark
	// re-evaluation (worker-private, no atomics needed).
	sinceAdapt int
}

type submission struct {
	req  Request
	fut  *Future   // the response path; its channel is buffered, so the worker's send never blocks
	span *obs.Span // nil unless attribution is on (barriers never carry one)
}

// Latency-attribution stages, in mark order. Per operation:
// queue is submit to worker dequeue; batch is dequeue to shard-lock
// acquisition (batch assembly plus lock wait); service is lock
// acquisition to this op's engine apply completing (which includes
// the applies of earlier ops in the same batch — the batch convoy is
// genuine service-side serialization); writeback is apply completion
// to the response handed to the submitter's future. The four stage
// durations sum to the op's end-to-end latency exactly.
const (
	stageQueue = iota
	stageBatch
	stageService
	stageWriteback
)

// StageNames are the attribution stage names, in pipeline order.
var StageNames = []string{"queue", "batch", "service", "writeback"}

// DefaultShards is the shard count when Config.Shards is unset.
const DefaultShards = 8

// DefaultTargetDelayNs is the adaptive watermark's queueing-delay
// objective when Config.TargetDelayNs is unset: 1ms of measured
// backlog drain time before Auto writebacks start degrading. (The
// simulated engine's per-op service time is tens to hundreds of
// microseconds of real software crypto, so the default knee sits at
// a backlog of a handful to a few dozen ops.)
const DefaultTargetDelayNs = 1_000_000

// DefaultAdaptEvery is how many drained batches a shard waits between
// watermark re-evaluations when Config.AdaptEvery is unset.
const DefaultAdaptEvery = 32

// defaultWatermark is the static degradation default: 3/4 of the
// queue depth, except that queues too small for 3/4 to mean anything
// (QueueDepth < 3 would round to 1 or less and demote every pipelined
// Auto write) degrade only when genuinely full.
func defaultWatermark(queueDepth int) int {
	w := queueDepth * 3 / 4
	if w < 2 {
		w = queueDepth
	}
	return w
}

// New builds and starts a pool; Close stops it.
func New(cfg Config) (*Pool, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.BatchMax > cfg.QueueDepth {
		cfg.BatchMax = cfg.QueueDepth
	}
	if cfg.Watermark == 0 {
		cfg.Watermark = defaultWatermark(cfg.QueueDepth)
	}
	if cfg.Engine == (core.EngineOptions{}) {
		cfg.Engine = core.DefaultEngineOptions()
	}
	if cfg.AdaptiveWatermark {
		if cfg.TargetDelayNs <= 0 {
			cfg.TargetDelayNs = DefaultTargetDelayNs
		}
		if cfg.AdaptEvery <= 0 {
			cfg.AdaptEvery = DefaultAdaptEvery
		}
		if cfg.Profile == nil {
			cfg.Profile = prof.New(aes.DefaultBackend())
		}
	}
	if cfg.Profile != nil {
		// Wire the pad/MAC probes into every shard engine's ciphers.
		cfg.Engine.Profile = cfg.Profile
	}
	p := &Pool{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	if pf := cfg.Profile; pf != nil {
		p.pf = pf
		p.pService = pf.Service
		p.pOccupancy = pf.Occupancy
		p.pSubmit = pf.SubmitWait
	}
	p.rec = cfg.Flight
	// The adaptive controller starts from the static default and
	// adapts from there; until the first measured batch it behaves
	// exactly like the static policy.
	p.wm.Store(int64(defaultWatermark(cfg.QueueDepth)))
	p.wmGauge.Set(p.wm.Load())
	for i := range p.shards {
		eng, err := core.NewEngine(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("mcpool: shard %d: %w", i, err)
		}
		// The pool is one memory controller: its shards split Table I's
		// counter cache.
		eng.Counters().SetCacheSize(ctrblock.CacheBytes / uint64(cfg.Shards))
		var attrib *obs.Attributor
		if cfg.Attribution {
			attrib = obs.NewAttributor(StageNames)
		}
		p.shards[i] = &shard{
			id:       i,
			q:        make(chan submission, cfg.QueueDepth),
			eng:      eng,
			lastMode: make(map[uint64]epoch.Mode),
			attrib:   attrib,
		}
		p.wg.Add(1)
		go p.worker(p.shards[i])
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// ShardOf returns the shard that owns addr. The mapping is pure —
// the same address always routes to the same shard — and follows the
// DRAM bank interleave: consecutive blocks round-robin the shards.
func (p *Pool) ShardOf(addr uint64) int {
	return int((addr >> 6) % uint64(len(p.shards)))
}

// submit enqueues one request with fut as its response path.
func (p *Pool) submit(req Request, fut *Future) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	s := p.shards[p.ShardOf(req.Addr)]
	p.submitted.Inc()
	s.q <- submission{req: req, fut: fut, span: s.attrib.Start()}
	d := int64(len(s.q))
	p.noteDepth(d)
	if p.rec != nil && p.recN.Add(1)&(flightSubmitSample-1) == 0 {
		p.rec.Record(flight.KindSubmit, int32(s.id), req.Addr, int64(req.Kind), d)
	}
	return nil
}

// flightSubmitSample: one in this many submits is recorded into the
// flight ring (power of two). Degradations, watermark moves, and
// faults are always recorded; submits are context.
const flightSubmitSample = 64

// Submit enqueues one request on its shard, blocking while the
// shard's bounded queue is full (backpressure). It fails only when
// the pool is closed (ErrClosed).
func (p *Pool) Submit(req Request) (*Future, error) {
	fut := newFuture()
	if err := p.submit(req, fut); err != nil {
		return nil, err
	}
	return fut, nil
}

// futurePool recycles SubmitWait's futures. A pooled future never
// leaves SubmitWait: it is received from exactly once through its
// channel (never Wait, so its once and resp stay zero) and returned —
// so the steady-state SubmitWait hot path performs no allocation.
var futurePool = sync.Pool{New: func() any { return newFuture() }}

// SubmitWait submits one request and blocks until its response — the
// allocation-free synchronous counterpart of Submit+Wait. A closed
// pool yields a Response with Err == ErrClosed.
func (p *Pool) SubmitWait(req Request) Response {
	t0 := p.pSubmit.Start()
	fut := futurePool.Get().(*Future)
	if err := p.submit(req, fut); err != nil {
		futurePool.Put(fut)
		// Errored submits are recorded too: every Start is matched by
		// a Done, so refused requests (ErrClosed — a shutdown burst)
		// show up in the submit-wait distribution instead of silently
		// leaking out of the probe's count.
		p.pSubmit.Done(t0)
		return Response{Err: err}
	}
	resp := <-fut.ch
	futurePool.Put(fut)
	p.pSubmit.Done(t0)
	return resp
}

// noteDepth maintains the queue-depth high-water mark.
func (p *Pool) noteDepth(d int64) {
	for {
		cur := p.maxDepth.Load()
		if d <= cur {
			return
		}
		if p.maxDepth.CompareAndSwap(cur, d) {
			p.depthHWM.Set(d)
			return
		}
	}
}

// Close drains the queues, stops the shard workers, and rejects
// further Submits. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, s := range p.shards {
		close(s.q)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// worker drains one shard's queue in FIFO batches, applying each
// batch under a single acquisition of the shard lock. Its batch and
// response buffers are allocated once and reused for the worker's
// lifetime: the steady-state loop performs no allocation,
// which is what keeps the SubmitWait round trip at zero allocs/op.
func (p *Pool) worker(s *shard) {
	defer p.wg.Done()
	batch := make([]submission, 0, p.cfg.BatchMax)
	resps := make([]Response, p.cfg.BatchMax)
	for sub := range s.q {
		sub.span.Mark(stageQueue)
		batch = append(batch[:0], sub)
	drain:
		for len(batch) < p.cfg.BatchMax {
			select {
			case more, ok := <-s.q:
				if !ok {
					break drain
				}
				more.span.Mark(stageQueue)
				batch = append(batch, more)
			default:
				break drain
			}
		}
		s.depth.Set(int64(len(s.q)))
		if !s.mu.TryLock() {
			s.contention.Inc()
			s.mu.Lock()
		}
		for i := range batch {
			batch[i].span.Mark(stageBatch)
		}
		work := 0 // non-barrier requests; FlushBarrier fences don't count
		t0 := p.pService.Start()
		for i := range batch {
			resps[i] = p.apply(s, batch[i].req)
			batch[i].span.Mark(stageService)
			if batch[i].req.Kind != opBarrier {
				work++
			}
		}
		p.pService.DoneN(t0, work)
		s.mu.Unlock()
		for i := range batch {
			batch[i].fut.ch <- resps[i]
			batch[i].span.Mark(stageWriteback)
			batch[i].span.Finish()
			batch[i] = submission{} // drop future/span/Tag references
		}
		if work > 0 {
			s.batches.Inc()
			s.batchSize.Add(int64(work))
			p.completed.Add(uint64(work))
			p.pOccupancy.Observe(int64(work))
			if p.cfg.AdaptiveWatermark {
				s.sinceAdapt++
				if s.sinceAdapt >= p.cfg.AdaptEvery {
					s.sinceAdapt = 0
					p.adapt(s)
				}
			}
		}
	}
}

// adapt re-evaluates the degradation watermark from the measured
// service rate: the backlog that drains within TargetDelayNs at the
// Service probe's per-op EWMA, clamped to [1, QueueDepth]. Moves are
// hysteresis-damped — a deadband of cur/8 (min 1) suppresses jitter,
// and the watermark steps half the remaining distance per evaluation
// rather than jumping. Adaptation only moves the knee at which Auto
// writebacks degrade; it can never change an explicit-mode result.
func (p *Pool) adapt(s *shard) {
	perOp := p.pService.EWMA()
	if perOp <= 0 {
		return // no measurement yet
	}
	target := int64(float64(p.cfg.TargetDelayNs) / perOp)
	if target < 1 {
		target = 1
	}
	if lim := int64(p.cfg.QueueDepth); target > lim {
		target = lim
	}
	cur := p.wm.Load()
	diff := target - cur
	dead := cur / 8
	if dead < 1 {
		dead = 1
	}
	if diff <= dead && diff >= -dead {
		return // within the deadband: hold
	}
	step := diff / 2
	if step == 0 {
		if diff > 0 {
			step = 1
		} else {
			step = -1
		}
	}
	next := cur + step
	if p.wm.CompareAndSwap(cur, next) {
		p.wmGauge.Set(next)
		p.wmMoves.Inc()
		p.rec.Record(flight.KindWatermark, int32(s.id), 0, cur, next)
	}
}

// apply executes one request against the shard engine. Caller holds
// the shard lock.
func (p *Pool) apply(s *shard, req Request) Response {
	var resp Response
	switch req.Kind {
	case OpRead:
		plain, info, err := s.eng.Read(req.Addr)
		resp = Response{Plain: plain, Info: info, Mode: info.Mode, Err: err}
	case OpWrite:
		mode := req.Mode
		if req.Auto {
			// The §IV-B monitor analogue: a backlog at or above the
			// watermark means the controller is saturated — shed the
			// counter and tree traffic for this writeback.
			mode = epoch.CounterMode
			if w := p.effectiveWatermark(); w >= 0 && len(s.q) >= w {
				mode = epoch.Counterless
				resp.Degraded = true
				p.degraded.Inc()
				p.rec.Record(flight.KindDegrade, int32(s.id), req.Addr, int64(len(s.q)), int64(w))
			}
		}
		err := s.eng.WriteAs(req.VM, req.Addr, req.Data, mode)
		applied := mode
		if err == nil && s.eng.IsPermanentCounterless(req.Addr) {
			applied = epoch.Counterless // §IV-C forced the block
		}
		resp.Mode = applied
		resp.Err = err
		if err == nil {
			if last, ok := s.lastMode[req.Addr]; ok && last != applied {
				s.modeSwitches.Inc()
				p.rec.Record(flight.KindModeSwitch, int32(s.id), req.Addr, int64(last), int64(applied))
			}
			s.lastMode[req.Addr] = applied
		}
	case OpFault:
		resp = Response{Err: s.eng.InjectFault(req.Addr, req.Chip, req.Pattern)}
		p.rec.Record(flight.KindFault, int32(s.id), req.Addr, int64(req.Chip), int64(req.Pattern))
	case opBarrier:
		return resp
	default:
		// Never reaches an engine, so there is nothing to journal.
		return Response{Err: fmt.Errorf("mcpool: unknown op kind %d", req.Kind)}
	}
	if p.cfg.Persist {
		s.seq++
		s.plog = AppendEntry(s.plog, persistEntry(s, req, resp))
	}
	return resp
}

// persistEntry captures the resolved state of one applied op for the
// persistent journal. Caller holds the shard lock, so the engine
// probes see exactly the post-op state.
func persistEntry(s *shard, req Request, resp Response) Entry {
	e := Entry{
		Seq:     s.seq,
		Kind:    req.Kind,
		Addr:    req.Addr,
		VM:      req.VM,
		Mode:    resp.Mode,
		Chip:    req.Chip,
		Pattern: req.Pattern,
		Err:     resp.Err != nil,
	}
	if req.Kind != OpFault {
		e.Sum, e.HasSum = ResponseSum(s.eng.CounterCipher(), req, resp), true
	}
	if t, ok := req.Tag.(int); ok {
		e.Tag, e.HasTag = int64(t), true
	} else if t, ok := req.Tag.(int64); ok {
		e.Tag, e.HasTag = t, true
	}
	if req.Kind != OpRead && resp.Err == nil {
		if cw, ok := s.eng.Snapshot(req.Addr); ok {
			e.CW, e.HasCW = cw, true
			e.Meta = cw.DecodeMeta()
		}
		e.Ctr = s.eng.Counters().Counter(req.Addr)
		e.PermCL = s.eng.IsPermanentCounterless(req.Addr)
	}
	return e
}

// PersistedJournal returns a copy of shard i's encoded persistent
// journal (empty unless Config.Persist was set). The bytes decode
// with DecodeJournal and replay with Entry.Apply.
func (p *Pool) PersistedJournal(i int) []byte {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.plog...)
}

// FlushBarrier is the pool's fence: it blocks until every request
// submitted before the call has been applied (one FIFO barrier per
// shard), then returns each shard's current apply seq (indexed by
// shard). Requests journaled at or below the returned seq are
// guaranteed present in the persisted journal bytes taken after the
// call — the crash/recover lifecycle's "everything before the barrier
// must survive" contract. Requests submitted concurrently with the
// call may or may not be covered. On a closed pool nothing is queued
// and the seqs are read as they stand.
func (p *Pool) FlushBarrier() []uint64 {
	p.mu.RLock()
	var futs []*Future
	if !p.closed {
		futs = make([]*Future, len(p.shards))
		for i, s := range p.shards {
			futs[i] = newFuture()
			s.q <- submission{req: Request{Kind: opBarrier}, fut: futs[i]}
		}
	}
	p.mu.RUnlock()
	for _, f := range futs {
		f.Wait()
	}
	out := make([]uint64, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.seq
		s.mu.Unlock()
	}
	return out
}

// WithShardEngine runs fn with shard i's engine under the shard lock.
// This is the recovery/verification seam: lifecycle tests compare a
// journal-rebuilt engine against the live shard engine, and a
// recovery path swaps state in, without mcpool exporting engine
// internals. fn must not retain the engine past the call.
func (p *Pool) WithShardEngine(i int, fn func(*core.Engine)) {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.eng)
}

// RestoreShard fast-forwards shard i of a freshly built pool to
// recovered durable state: fn (if non-nil) redo-applies the recovered
// journal entries to the shard engine under the shard lock, and the
// shard's persistent journal bytes and apply seq are seeded from the
// recovered prefix — so journaling continues
// exactly where the crashed pool's durable state left off, with no seq
// reuse. plog must be the valid (complete-record) prefix of the dead
// shard's persisted journal and seq the Seq of its last entry.
//
// The pool must not have applied any traffic yet: restoring over a
// shard that has already journaled is an error. This is the low-level
// seam; internal/nvm.RecoverShards drives it per shard with torn-tail
// truncation.
func (p *Pool) RestoreShard(i int, plog []byte, seq uint64, fn func(*core.Engine) error) error {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq != 0 || len(s.plog) > 0 {
		return fmt.Errorf("mcpool: shard %d: cannot restore after traffic (seq %d)", i, s.seq)
	}
	if fn != nil {
		if err := fn(s.eng); err != nil {
			return err
		}
	}
	s.plog = append(s.plog[:0], plog...)
	s.seq = seq
	return nil
}

// ShardStats returns shard i's engine counters.
func (p *Pool) ShardStats(i int) core.EngineStats {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Stats()
}

// Aggregate sums the pool's counters: the shard engines' EngineStats
// plus the frontend's own accounting.
type Aggregate struct {
	core.EngineStats
	ModeSwitches   uint64 // per-block stored-mode transitions
	DegradedWrites uint64 // Auto writes demoted by the watermark
	Submitted      uint64
	Completed      uint64
	Batches        uint64
	Contention     uint64 // shard-lock acquisitions that had to wait
	MaxQueueDepth  int64  // high-water mark across all shard queues
}

// Aggregate snapshots the pool-wide totals.
func (p *Pool) Aggregate() Aggregate {
	var a Aggregate
	for i, s := range p.shards {
		a.EngineStats.Add(p.ShardStats(i))
		a.ModeSwitches += s.modeSwitches.Value()
		a.Batches += s.batches.Value()
		a.Contention += s.contention.Value()
	}
	a.DegradedWrites = p.degraded.Value()
	a.Submitted = p.submitted.Value()
	a.Completed = p.completed.Value()
	a.MaxQueueDepth = p.maxDepth.Load()
	return a
}

// Sample is an instantaneous load reading for telemetry timelines.
type Sample struct {
	QueueDepths []int // per-shard instantaneous queue depth
	TotalDepth  int
	Submitted   uint64
	Completed   uint64
	Degraded    uint64
	Batches     uint64
}

// Sample reads the pool's load without locking the shards.
func (p *Pool) Sample() Sample {
	s := Sample{QueueDepths: make([]int, len(p.shards))}
	for i, sh := range p.shards {
		d := len(sh.q)
		s.QueueDepths[i] = d
		s.TotalDepth += d
		s.Batches += sh.batches.Value()
	}
	s.Submitted = p.submitted.Value()
	s.Completed = p.completed.Value()
	s.Degraded = p.degraded.Value()
	return s
}

// effectiveWatermark is the degradation knee apply consults: the
// live adaptive value when adaptation is on, the configured static
// one otherwise.
func (p *Pool) effectiveWatermark() int {
	if p.cfg.AdaptiveWatermark {
		return int(p.wm.Load())
	}
	return p.cfg.Watermark
}

// Watermark returns the current effective degradation watermark
// (negative when disabled): the configured static value, or the
// adaptive controller's live value when AdaptiveWatermark is on.
func (p *Pool) Watermark() int { return p.effectiveWatermark() }

// Shedding reports whether any shard's queue currently sits at or past
// the effective degradation watermark — i.e. an Auto write arriving
// now would be demoted to counterless. This is the node-level health
// signal a cluster admission policy consults; it is instantaneous
// (channel-length reads, no locks) and false whenever degradation is
// disabled.
func (p *Pool) Shedding() bool {
	w := p.effectiveWatermark()
	if w < 0 {
		return false
	}
	for _, s := range p.shards {
		if len(s.q) >= w {
			return true
		}
	}
	return false
}

// WatermarkMoves returns how many times the adaptive controller has
// moved the watermark (0 with the static policy).
func (p *Pool) WatermarkMoves() uint64 { return p.wmMoves.Value() }

// Profiler returns the pool's online profiler (nil when disabled).
// With AdaptiveWatermark set the pool guarantees one exists.
func (p *Pool) Profiler() *prof.Profiler { return p.pf }

// FlightRing returns the attached flight recorder (nil when
// disabled).
func (p *Pool) FlightRing() *flight.Ring { return p.rec }

// AttributionEnabled reports whether the pool records per-op latency
// attribution.
func (p *Pool) AttributionEnabled() bool { return p.cfg.Attribution }

// AttributionSummary merges the per-shard stage histograms into one
// pool-wide latency breakdown: one row per stage (queue, batch,
// service, writeback) plus a final end-to-end "total" row. Nil when
// attribution is off.
func (p *Pool) AttributionSummary() []obs.StageSummary {
	if !p.cfg.Attribution {
		return nil
	}
	as := make([]*obs.Attributor, len(p.shards))
	for i, s := range p.shards {
		as[i] = s.attrib
	}
	return obs.SummarizeAttributors(as)
}

// ShardAttribution returns shard i's latency attributor (nil when
// attribution is off) — per-shard breakdowns for tests and the
// monitoring surfaces.
func (p *Pool) ShardAttribution(i int) *obs.Attributor {
	return p.shards[i].attrib
}

// RegisterMetrics exposes the pool's frontend counters and every
// shard's engine counters (shard="N"-labelled) through a registry.
func (p *Pool) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterCounter("mcpool_submitted_total", &p.submitted, labels...)
	reg.RegisterCounter("mcpool_completed_total", &p.completed, labels...)
	reg.RegisterCounter("mcpool_degraded_writes_total", &p.degraded, labels...)
	reg.RegisterGauge("mcpool_queue_depth_hwm", &p.depthHWM, labels...)
	if p.cfg.AdaptiveWatermark {
		reg.RegisterGauge("mcpool_watermark", &p.wmGauge, labels...)
		reg.RegisterCounter("mcpool_watermark_moves_total", &p.wmMoves, labels...)
	}
	p.pf.Register(reg, labels...)
	for _, s := range p.shards {
		ls := append(append([]obs.Label(nil), labels...), obs.L("shard", strconv.Itoa(s.id)))
		reg.RegisterGauge("mcpool_shard_queue_depth", &s.depth, ls...)
		reg.RegisterCounter("mcpool_shard_batches_total", &s.batches, ls...)
		reg.RegisterCounter("mcpool_shard_contention_total", &s.contention, ls...)
		reg.RegisterCounter("mcpool_shard_mode_switches_total", &s.modeSwitches, ls...)
		reg.RegisterHistogram("mcpool_shard_batch_size", &s.batchSize, ls...)
		s.attrib.Register(reg, "mcpool_stage_latency_ns", "mcpool_op_latency_ns", ls...)
		s.eng.RegisterMetrics(reg, ls...)
	}
}
