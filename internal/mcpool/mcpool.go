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
// Auto mode follow the paper's §IV-B bandwidth monitor with the shard
// as the channel: each shard runs one epoch.Monitor on wall-clock
// nanoseconds, fed the busy time of every batch (shard lock taken to
// shard lock released). Once a shard has been busy for 60% of a
// 100 µs epoch, its Auto writebacks go counterless for the rest of
// that epoch and, because the epoch was busy, for the whole next one,
// shedding counter and integrity-tree work exactly when the shard is
// saturated.
package mcpool

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
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
	// Auto is set the pool decides instead: counterless while the
	// owning shard's epoch monitor is in a counterless epoch (§IV-B),
	// counter mode otherwise. Auto-mode results depend on load and
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
	Degraded bool          // write: Auto demoted to counterless by the shard's epoch monitor
	Err      error
}

// Future is the pending result of a Submit. Wait blocks until the
// owning shard applies the request; it is safe to call repeatedly and
// from multiple goroutines.
type Future struct {
	done sync.WaitGroup // one pending response; the worker's Done publishes resp
	resp Response
}

func newFuture() *Future {
	f := &Future{}
	f.done.Add(1)
	return f
}

// Wait returns the response, blocking until the request is applied.
func (f *Future) Wait() Response {
	f.done.Wait()
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
	// Profile attaches an online profiler: pad/MAC probes are wired
	// into every shard engine's ciphers, and the pool feeds the
	// SubmitWait probe. Purely observational: no decision of the pool
	// reads it.
	Profile *prof.Profiler
	// Flight attaches a flight recorder: degradations, stored-mode
	// switches, fault injections, and sampled submits are recorded
	// into the ring. Nil disables recording.
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

	// Self-observation. pSubmit copies the profiler's SubmitWait
	// field so a disabled profiler costs one nil check per submit
	// (probe methods are nil-safe; profiler field access is not).
	pf      *prof.Profiler
	pSubmit *prof.Probe
	rec     *flight.Ring
	recN    atomic.Uint64 // submit-sampling counter for the recorder

	// now is the clock the shard epoch monitors run on: nanoseconds
	// since the pool was built.
	now func() int64
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

	// mon is the shard's §IV-B epoch monitor, fed the busy ns of every
	// batch; only the worker drives it, and others read only its
	// atomic counters. until is the time up to which the shard stays
	// counterless if no more work arrives, published after each batch
	// so Shedding reads it without the shard lock.
	mon   *epoch.Monitor
	until atomic.Int64
}

type submission struct {
	req  Request
	fut  *Future   // the response path; completing it never blocks the worker
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

// Each shard's epoch monitor runs Table I's §IV-B parameters on
// nanoseconds of shard busy time: a shard busy for busyThreshold of an
// epochNs epoch is saturated.
const (
	epochNs       = 100_000
	busyThreshold = 0.60
)

// New builds and starts a pool; Close stops it.
func New(cfg Config) (*Pool, error) {
	start := time.Now()
	return newPool(cfg, func() int64 { return int64(time.Since(start)) })
}

// newPool is New on a given clock for the shard epoch monitors, in
// nanoseconds from about 0; tests script it.
func newPool(cfg Config, now func() int64) (*Pool, error) {
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
	if cfg.Engine == (core.EngineOptions{}) {
		cfg.Engine = core.DefaultEngineOptions()
	}
	if cfg.Profile != nil {
		// Wire the pad/MAC probes into every shard engine's ciphers.
		cfg.Engine.Profile = cfg.Profile
	}
	p := &Pool{cfg: cfg, shards: make([]*shard, cfg.Shards), now: now}
	if pf := cfg.Profile; pf != nil {
		p.pf = pf
		p.pSubmit = pf.SubmitWait
	}
	p.rec = cfg.Flight
	for i := range p.shards {
		eng, err := core.NewEngine(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("mcpool: shard %d: %w", i, err)
		}
		// The pool is one memory controller: its shards split Table I's
		// counter cache.
		eng.Counters().SetCacheSize(ctrblock.CacheBytes / uint64(cfg.Shards))
		mon, err := epoch.NewMonitor(epochNs, 1, busyThreshold)
		if err != nil {
			return nil, fmt.Errorf("mcpool: shard %d: %w", i, err)
		}
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
			mon:      mon,
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
// flight ring (power of two). Degradations and faults are always
// recorded; submits are context.
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

// futurePool recycles SubmitWait's futures, idle at a zero count. A
// pooled future never leaves SubmitWait: it is armed with Add(1)
// before its submit, waited on once by SubmitWait alone, and returned
// only after that Wait, so the next Add follows it as sync.WaitGroup
// requires — and the steady-state SubmitWait hot path performs no
// allocation.
var futurePool = sync.Pool{New: func() any { return new(Future) }}

// SubmitWait submits one request and blocks until its response — the
// allocation-free synchronous counterpart of Submit+Wait. A closed
// pool yields a Response with Err == ErrClosed.
func (p *Pool) SubmitWait(req Request) Response {
	t0 := p.pSubmit.Start()
	fut := futurePool.Get().(*Future)
	fut.done.Add(1)
	if err := p.submit(req, fut); err != nil {
		fut.done.Done()
		futurePool.Put(fut)
		// Errored submits are recorded too: every Start is matched by
		// a Done, so refused requests (ErrClosed — a shutdown burst)
		// show up in the submit-wait distribution instead of silently
		// leaking out of the probe's count.
		p.pSubmit.Done(t0)
		return Response{Err: err}
	}
	resp := fut.Wait()
	fut.resp = Response{} // drop the response's references while pooled
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
// batch under a single acquisition of the shard lock. Each response
// is stored straight into its future and released by the future's
// Done after the lock drops. The batch buffer is allocated once and
// reused for the worker's lifetime: the steady-state loop performs no
// allocation, which is what keeps the SubmitWait round trip at zero
// allocs/op.
func (p *Pool) worker(s *shard) {
	defer p.wg.Done()
	batch := make([]submission, 0, p.cfg.BatchMax)
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
		busyFrom := p.now()
		// One verdict serves the whole batch: the monitor's mode moves
		// only when a batch is recorded or an epoch closes, and a
		// batch is short against an epoch.
		auto := s.mon.WritebackMode(busyFrom)
		for i := range batch {
			batch[i].span.Mark(stageBatch)
		}
		work := 0 // non-barrier requests; FlushBarrier fences don't count
		for i := range batch {
			p.apply(s, &batch[i].req, auto, &batch[i].fut.resp)
			batch[i].span.Mark(stageService)
			if batch[i].req.Kind != opBarrier {
				work++
			}
		}
		busyTo := p.now()
		s.mu.Unlock()
		s.mon.Record(busyTo, uint64(busyTo-busyFrom))
		s.until.Store(s.mon.CounterlessUntil())
		for i := range batch {
			batch[i].fut.done.Done()
			batch[i].span.Mark(stageWriteback)
			batch[i].span.Finish()
			batch[i] = submission{} // drop future/span/Tag references
		}
		if work > 0 {
			s.batches.Inc()
			s.batchSize.Add(int64(work))
			p.completed.Add(uint64(work))
		}
	}
}

// apply executes one request against the shard engine and stores its
// outcome in resp, which it overwrites whole; an Auto write takes the
// shard monitor's verdict auto. Caller holds the shard lock.
func (p *Pool) apply(s *shard, req *Request, auto epoch.Mode, resp *Response) {
	*resp = Response{}
	switch req.Kind {
	case OpRead:
		resp.Plain, resp.Info, resp.Err = s.eng.Read(req.Addr)
		resp.Mode = resp.Info.Mode
	case OpWrite:
		mode := req.Mode
		if req.Auto {
			// §IV-B: a shard in a counterless epoch sheds the counter
			// and tree traffic of this writeback.
			mode = auto
			if mode == epoch.Counterless {
				resp.Degraded = true
				p.degraded.Inc()
				p.rec.Record(flight.KindDegrade, int32(s.id), req.Addr,
					int64(s.mon.EpochAccesses()), int64(s.mon.Threshold()))
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
		resp.Err = s.eng.InjectFault(req.Addr, req.Chip, req.Pattern)
		p.rec.Record(flight.KindFault, int32(s.id), req.Addr, int64(req.Chip), int64(req.Pattern))
	case opBarrier:
		return
	default:
		// Never reaches an engine, so there is nothing to journal.
		resp.Err = fmt.Errorf("mcpool: unknown op kind %d", req.Kind)
		return
	}
	if p.cfg.Persist {
		s.seq++
		var e Entry
		persistEntry(s, req, resp, &e)
		s.plog = AppendEntry(s.plog, &e)
	}
}

// persistEntry fills the zero Entry e with the resolved state of one
// applied op for the persistent journal. Caller holds the shard lock,
// so the engine probes see exactly the post-op state.
func persistEntry(s *shard, req *Request, resp *Response, e *Entry) {
	e.Seq = s.seq
	e.Kind = req.Kind
	e.Addr = req.Addr
	e.VM = req.VM
	e.Mode = resp.Mode
	e.Chip = req.Chip
	e.Pattern = req.Pattern
	e.Err = resp.Err != nil
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
	DegradedWrites uint64 // Auto writes demoted by the shard epoch monitors
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

// Shedding reports whether any shard is in a counterless epoch, so
// that an Auto write arriving there now would be demoted. This is the
// node-level health signal a cluster admission policy consults. It
// reads each shard's published deadline without locks, and a shard
// that stops receiving work stops shedding once its deadline passes.
func (p *Pool) Shedding() bool { return p.CounterlessShards() > 0 }

// CounterlessShards counts the shards now in a counterless epoch.
func (p *Pool) CounterlessShards() int {
	now := p.now()
	n := 0
	for _, s := range p.shards {
		if now < s.until.Load() {
			n++
		}
	}
	return n
}

// CounterlessEpochs counts, across shards, the epochs whose Auto
// writebacks ran counterless for all or part of the epoch: those that
// started counterless after a busy epoch, plus those that fell back
// mid-epoch.
func (p *Pool) CounterlessEpochs() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.mon.CounterlessEpochs() + s.mon.MidEpochSwitches()
	}
	return n
}

// Profiler returns the pool's online profiler (nil when disabled).
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
