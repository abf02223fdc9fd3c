package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/ctrblock"
	"counterlight/internal/epoch"
	"counterlight/internal/fault"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs/flight"
	"counterlight/internal/wire"
)

// ErrCrashed is returned by every Engine entry point once the domain
// has lost power. Nothing volatile survives; call Recover on the
// Domain to come back up.
var ErrCrashed = errors.New("nvm: domain crashed (power failure)")

// Config sizes the NVM engine.
type Config struct {
	// Engine configures the wrapped core engine; the zero value means
	// core.DefaultEngineOptions().
	Engine core.EngineOptions
	// PendingLimit bounds the write-pending metadata queue (default
	// 32): dirty counter/ownership entries accumulated since the last
	// flush. Reaching the limit forces an implicit flush — the
	// backpressure that keeps recovery's replay window bounded.
	PendingLimit int
	// SnapshotChunk is the byte granularity of snapshot persistence
	// (default 128); each chunk is one crash-injectable step.
	SnapshotChunk int
	// Flight records crash and recovery events. Nil disables.
	Flight *flight.Ring
	// BreakRecovery is the test-only teeth-check knob: recovery drops
	// the last durable journal entry, deliberately losing the newest
	// metadata update. The crash campaign must catch and shrink it.
	BreakRecovery bool
}

func (c *Config) setDefaults() {
	if c.Engine.AESKeyBytes == 0 {
		c.Engine = core.DefaultEngineOptions()
	}
	if c.PendingLimit <= 0 {
		c.PendingLimit = 32
	}
	if c.SnapshotChunk <= 0 {
		c.SnapshotChunk = 128
	}
}

// blockMeta is the write-pending metadata image of one block: what a
// snapshot persists and recovery forces back.
type blockMeta struct {
	ctr    uint32
	vm     int
	permCL bool
}

// Engine wraps a core.Engine with the NVM persistence protocol:
// journal append (two steps) → data persist (one step) → pending
// metadata, with explicit or backpressure-forced flushes. Everything
// outside the Domain is volatile and dies at the crash point.
type Engine struct {
	cfg Config
	eng *core.Engine
	dom *Domain
	mon *epoch.Monitor

	seq     uint64 // journal sequence of the last applied mutation
	lastTag int64  // highest op tag journaled (-1 none)
	meta    map[uint64]blockMeta
	pending map[uint64]struct{}
	encBuf  []byte

	implicitFlushes uint64
}

// New builds an NVM engine over a fresh persistence domain.
func New(cfg Config) (*Engine, error) {
	cfg.setDefaults()
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("nvm: %w", err)
	}
	return &Engine{
		cfg:     cfg,
		eng:     eng,
		dom:     NewDomain(cfg.Flight),
		lastTag: -1,
		meta:    make(map[uint64]blockMeta),
		pending: make(map[uint64]struct{}),
		encBuf:  make([]byte, 0, 256),
	}, nil
}

// Core exposes the wrapped volatile engine (reads, state diffs).
func (n *Engine) Core() *core.Engine { return n.eng }

// Domain exposes the durable side — what survives the crash and what
// Recover rebuilds from.
func (n *Engine) Domain() *Domain { return n.dom }

// SetMonitor attaches an epoch monitor whose timeline state is
// included in metadata snapshots (persisted at flush, restored by
// recovery via RecoveryReport.Monitor).
func (n *Engine) SetMonitor(m *epoch.Monitor) { n.mon = m }

// ArmCrash arms a crash point on the domain.
func (n *Engine) ArmCrash(cp *fault.CrashPoint) { n.dom.ArmCrash(cp) }

// Crashed reports whether the domain has lost power.
func (n *Engine) Crashed() bool { return n.dom.crashed }

// Seq returns the journal sequence of the last applied mutation.
func (n *Engine) Seq() uint64 { return n.seq }

// LastTag returns the highest op tag journaled (-1 before any).
func (n *Engine) LastTag() int64 { return n.lastTag }

// PendingLen returns the write-pending metadata queue depth.
func (n *Engine) PendingLen() int { return len(n.pending) }

// ImplicitFlushes counts backpressure-forced flushes.
func (n *Engine) ImplicitFlushes() uint64 { return n.implicitFlushes }

// Write applies one write op with NVM persistence: volatile apply,
// journal append (resolved counter/mode/codeword), data persist,
// pending-queue update, possibly a forced flush. tag is the caller's
// op index, carried into the journal. Returns ErrCrashed if power
// failed before or during persistence (the volatile apply may have
// happened; it is gone either way).
func (n *Engine) Write(tag int64, vm int, addr uint64, plain cipher.Block, mode epoch.Mode) error {
	if n.dom.crashed {
		return ErrCrashed
	}
	if err := n.eng.WriteAs(vm, addr, plain, mode); err != nil {
		return err
	}
	return n.logEntry(tag, mcpool.Entry{Kind: mcpool.OpWrite, Addr: addr})
}

// InjectFault applies one fault op with NVM persistence: the
// post-fault codeword is journaled and persisted like a write's.
func (n *Engine) InjectFault(tag int64, addr uint64, chip int, pattern uint64) error {
	if n.dom.crashed {
		return ErrCrashed
	}
	if err := n.eng.InjectFault(addr, chip, pattern); err != nil {
		return err
	}
	return n.logEntry(tag, mcpool.Entry{Kind: mcpool.OpFault, Addr: addr, Chip: chip, Pattern: pattern})
}

// Read serves a read from the volatile engine; reads touch no durable
// state and take no persistence steps.
func (n *Engine) Read(addr uint64) (cipher.Block, core.ReadInfo, error) {
	if n.dom.crashed {
		return cipher.Block{}, core.ReadInfo{}, ErrCrashed
	}
	return n.eng.Read(addr)
}

// logEntry journals one applied mutation with its resolved state,
// persists the data codeword, and marks the metadata dirty.
func (n *Engine) logEntry(tag int64, e mcpool.Entry) error {
	cw, ok := n.eng.Snapshot(e.Addr)
	n.seq++
	e.Seq = n.seq
	e.VM = n.eng.VMOf(e.Addr)
	e.Ctr = n.eng.Counters().Counter(e.Addr)
	e.PermCL = n.eng.IsPermanentCounterless(e.Addr)
	e.Tag, e.HasTag = tag, true
	e.Mode = epoch.CounterMode
	if ok {
		e.CW, e.HasCW = cw, true
		e.Meta = cw.DecodeMeta()
		if e.Meta == ctrblock.CounterlessFlag {
			e.Mode = epoch.Counterless
		}
	}
	n.meta[e.Addr] = blockMeta{ctr: e.Ctr, vm: e.VM, permCL: e.PermCL}
	if tag > n.lastTag {
		n.lastTag = tag
	}
	n.encBuf = mcpool.AppendEntry(n.encBuf[:0], e)
	n.dom.appendJournal(n.encBuf, n.seq)
	n.dom.persistData(e.Addr, cw, n.seq)
	n.pending[e.Addr] = struct{}{}
	if len(n.pending) >= n.cfg.PendingLimit {
		n.implicitFlushes++
		n.flush()
	}
	if n.dom.crashed {
		return ErrCrashed
	}
	return nil
}

// Flush drains the write-pending metadata queue: the full metadata
// table (plus the epoch monitor's timeline, if attached) is
// snapshotted into the alternate slot and the journal truncated.
func (n *Engine) Flush() error {
	if n.dom.crashed {
		return ErrCrashed
	}
	n.flush()
	if n.dom.crashed {
		return ErrCrashed
	}
	return nil
}

func (n *Engine) flush() {
	n.dom.writeSnapshot(n.snapshot().encode(), n.seq, n.cfg.SnapshotChunk)
	if !n.dom.crashed {
		clear(n.pending)
	}
}

// Snapshot wire format: "nvs1", seq, lastTag, flags (bit0 = monitor
// state present), optional monitor timeline, block count, then per
// block (sorted by address) addr/ctr/vm/flags (bit0 = permanently
// counterless).
const (
	snapFlagMonitor = 1 << 0
	snapBlockPermCL = 1 << 0
)

type snapBlock struct {
	addr uint64
	meta blockMeta
}

type snapshot struct {
	seq     uint64
	lastTag int64
	monitor *epoch.State
	blocks  []snapBlock
}

// snapshot captures the metadata table (plus the epoch monitor's
// timeline, if attached) as of now, blocks sorted by address.
func (n *Engine) snapshot() snapshot {
	s := snapshot{seq: n.seq, lastTag: n.lastTag, blocks: make([]snapBlock, 0, len(n.meta))}
	if n.mon != nil {
		st := n.mon.ExportState()
		s.monitor = &st
	}
	for a, m := range n.meta {
		s.blocks = append(s.blocks, snapBlock{addr: a, meta: m})
	}
	sort.Slice(s.blocks, func(i, j int) bool { return s.blocks[i].addr < s.blocks[j].addr })
	return s
}

func (s snapshot) encode() []byte {
	buf := []byte{'n', 'v', 's', '1'}
	buf = binary.AppendUvarint(buf, s.seq)
	buf = binary.AppendVarint(buf, s.lastTag)
	var flags byte
	if s.monitor != nil {
		flags |= snapFlagMonitor
	}
	buf = append(buf, flags)
	if st := s.monitor; st != nil {
		buf = binary.AppendVarint(buf, st.EpochStart)
		buf = binary.AppendUvarint(buf, st.Accesses)
		buf = append(buf, byte(st.Mode), byte(st.StartMode), byte(st.NextFromStart))
		buf = binary.AppendUvarint(buf, st.Closed)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.blocks)))
	for _, b := range s.blocks {
		buf = binary.AppendUvarint(buf, b.addr)
		buf = binary.AppendUvarint(buf, uint64(b.meta.ctr))
		buf = binary.AppendUvarint(buf, uint64(b.meta.vm))
		var bf byte
		if b.meta.permCL {
			bf |= snapBlockPermCL
		}
		buf = append(buf, bf)
	}
	return buf
}

// decodeSnapshot is encode's inverse. It accepts only what encode
// writes — minimal varints, 32-bit counters, known flag bits and
// monitor modes — so every accepted slot re-encodes byte-identically.
func decodeSnapshot(data []byte) (snapshot, error) {
	var s snapshot
	if len(data) < 4 || string(data[:4]) != "nvs1" {
		return s, errors.New("nvm: snapshot magic mismatch")
	}
	r := wire.NewReader(data[4:])
	s.seq = r.Uvarint()
	s.lastTag = r.Varint()
	flags := r.U8()
	if flags&^byte(snapFlagMonitor) != 0 {
		return s, fmt.Errorf("nvm: snapshot has unknown flags %#x", flags)
	}
	if flags&snapFlagMonitor != 0 {
		st := epoch.State{EpochStart: r.Varint(), Accesses: r.Uvarint()}
		modes := [3]byte{r.U8(), r.U8(), r.U8()}
		for _, m := range modes {
			if m > byte(epoch.Counterless) {
				return s, fmt.Errorf("nvm: snapshot has unknown monitor mode %d", m)
			}
		}
		st.Mode, st.StartMode, st.NextFromStart = epoch.Mode(modes[0]), epoch.Mode(modes[1]), epoch.Mode(modes[2])
		st.Closed = r.Uvarint()
		s.monitor = &st
	}
	nb := r.Uvarint()
	if nb > uint64(len(data)) { // ≥4 bytes per block: cheap sanity bound
		return s, fmt.Errorf("nvm: snapshot block count %d implausible", nb)
	}
	s.blocks = make([]snapBlock, 0, nb)
	for i := uint64(0); i < nb && !r.Bad(); i++ {
		var b snapBlock
		b.addr = r.Uvarint()
		ctr := r.Uvarint()
		if ctr > math.MaxUint32 {
			return s, fmt.Errorf("nvm: snapshot block %#x counter %d overflows uint32", b.addr, ctr)
		}
		b.meta.ctr = uint32(ctr)
		b.meta.vm = int(r.Uvarint())
		bf := r.U8()
		if bf&^byte(snapBlockPermCL) != 0 {
			return s, fmt.Errorf("nvm: snapshot block %#x has unknown flags %#x", b.addr, bf)
		}
		b.meta.permCL = bf&snapBlockPermCL != 0
		s.blocks = append(s.blocks, b)
	}
	if r.Bad() {
		return s, errors.New("nvm: snapshot truncated or has a non-minimal varint")
	}
	if n := r.Rest(); n != 0 {
		return s, fmt.Errorf("nvm: snapshot has %d trailing bytes", n)
	}
	return s, nil
}

// RecoveryReport describes what recovery found and rebuilt.
type RecoveryReport struct {
	Slot     int    // snapshot slot recovered from (-1: none committed)
	SlotSeq  uint64 // journal seq the snapshot covers
	TornSlot bool   // a written slot failed its MAC (crash mid-flush)
	TornTail bool   // journal tail was torn mid-append and truncated
	Replayed int    // journal entries replayed
	Blocks   int    // blocks present after recovery
	LastTag  int64  // highest durable op tag (-1: nothing durable)

	// Monitor is the epoch timeline persisted by the last committed
	// flush, for the caller to RestoreState into a rebuilt monitor.
	Monitor *epoch.State
}

// Recover rebuilds an NVM engine from a crashed domain: pick the
// newest MAC-valid snapshot slot (a torn slot falls back to the
// previous one at the cost of a longer replay), restore the durable
// data region, then redo-replay the journal's valid prefix, forcing
// each entry's journaled counter/ownership/codeword state. The
// returned engine shares the domain and can continue serving.
func Recover(dom *Domain, cfg Config) (*Engine, RecoveryReport, error) {
	cfg.setDefaults()
	dom.PowerCycle()
	rep := RecoveryReport{Slot: -1, LastTag: -1}
	eng, err := core.NewEngine(cfg.Engine)
	if err != nil {
		return nil, rep, fmt.Errorf("nvm: %w", err)
	}
	n := &Engine{
		cfg:     cfg,
		eng:     eng,
		dom:     dom,
		lastTag: -1,
		meta:    make(map[uint64]blockMeta),
		pending: make(map[uint64]struct{}),
		encBuf:  make([]byte, 0, 256),
	}
	dom.rec = cfg.Flight

	best, torn := dom.bestSlot()
	rep.TornSlot = torn
	var snapSeq uint64
	if best >= 0 {
		snap, err := decodeSnapshot(dom.slots[best].buf)
		if err != nil {
			return nil, rep, err // MAC-valid slot must decode; this is corruption
		}
		rep.Slot, rep.SlotSeq = best, dom.slots[best].seq
		snapSeq = dom.slots[best].seq
		n.seq = snapSeq
		n.lastTag = snap.lastTag
		rep.Monitor = snap.monitor
		for _, b := range snap.blocks {
			if err := applyMeta(eng, b.addr, b.meta); err != nil {
				return nil, rep, err
			}
			n.meta[b.addr] = b.meta
		}
		dom.ping = 1 - best // next flush overwrites the other slot
	} else {
		dom.ping = 0
	}

	// Data region: codewords persisted in place. Journal replay below
	// re-restores any block with durable post-snapshot entries, so
	// last-entry-wins ordering holds regardless of map order here.
	for addr, cell := range dom.data {
		eng.Restore(addr, cell.cw)
	}

	entries, tornTail, err := dom.durableJournal()
	if err != nil {
		return nil, rep, err
	}
	rep.TornTail = tornTail
	if cfg.BreakRecovery && len(entries) > 0 {
		entries = entries[:len(entries)-1]
	}
	for _, e := range entries {
		if err := e.Apply(eng); err != nil {
			return nil, rep, err
		}
		if e.Kind != mcpool.OpRead {
			n.meta[e.Addr] = blockMeta{ctr: e.Ctr, vm: e.VM, permCL: e.PermCL}
			if e.Seq > snapSeq {
				// Not yet covered by a committed snapshot: dirty again,
				// exactly as before the crash (backpressure state).
				n.pending[e.Addr] = struct{}{}
			}
		}
		if e.Seq > n.seq {
			n.seq = e.Seq
		}
		if e.HasTag && e.Tag > n.lastTag {
			n.lastTag = e.Tag
		}
		rep.Replayed++
	}
	rep.Blocks = len(eng.Blocks())
	rep.LastTag = n.lastTag
	dom.rec.Record(flight.KindRecovery, -1, 0, int64(rep.Replayed), int64(rep.SlotSeq))
	return n, rep, nil
}

// applyMeta forces one block's snapshot metadata onto a fresh engine.
func applyMeta(eng *core.Engine, addr uint64, m blockMeta) error {
	if err := eng.BindVM(addr, m.vm); err != nil {
		return fmt.Errorf("nvm: snapshot block %#x: %w", addr, err)
	}
	if m.ctr != 0 {
		eng.Counters().ForceCounter(addr, m.ctr)
	}
	if m.permCL {
		eng.ForceCounterless(addr)
	}
	return nil
}
