package core

import (
	"fmt"

	"counterlight/internal/cipher"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/entropy"
	"counterlight/internal/epoch"
	"counterlight/internal/memoize"
	"counterlight/internal/obs"
	"counterlight/internal/obs/prof"
)

// EngineOptions configures the functional engine.
type EngineOptions struct {
	MemSize     uint64 // bytes of protected data memory
	AESKeyBytes int    // 16 (AES-128) or 32 (AES-256)
	MemoEntries int
	// EntropyDisambiguation enables the §IV-E enhancement: when
	// correction is ambiguous between the two mode hypotheses, pick
	// the candidate whose plaintext does not look random.
	EntropyDisambiguation bool
	// VMs is the number of per-VM counterless keys to provision
	// (§IV-D: counterless mode needs per-VM keys to block the
	// ciphertext side channel; counter mode shares one global key
	// because the counter makes every ciphertext unique). 0 means 1.
	VMs int
	// CounterLimit overrides the maximum counter value (default
	// ctrblock.CounterMax). Lowering it lets tests exercise the
	// §IV-C saturation path: a block whose counter would exceed the
	// limit permanently switches to counterless mode.
	CounterLimit uint32
	// Cipher selects the AES backend the engine's ciphers run on
	// ("stdlib" or "ref"; empty means the process default,
	// aes.DefaultBackend). Both are bit-exact, so this choice affects
	// only host-side speed, never stored bytes or MACs.
	Cipher string
	// DisableCorrection skips the Fig. 14 trial-and-error correction
	// path entirely: a failed fast-path MAC check becomes an
	// immediate detected uncorrectable error. This is the
	// differential-verification harness's "known-bad mutation"
	// switch (internal/check): with correction off, any injected
	// fault must surface as an oracle divergence, proving the
	// harness detects missing ECC rather than silently passing.
	DisableCorrection bool
	// Profile attaches online profiler probes to the engine's hot
	// ciphers: pad-batch and MAC latency feed prof.Profiler's
	// estimators (and through them the mcpool adaptive-watermark
	// policy). Nil disables instrumentation at the cost of one nil
	// check per probe site. Purely observational — never affects
	// stored bytes or MACs.
	Profile *prof.Profiler
}

// DefaultEngineOptions uses a small (test-friendly) memory with the
// paper's table sizes.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{
		MemSize:               1 << 26, // 64 MB
		AESKeyBytes:           16,
		MemoEntries:           128,
		EntropyDisambiguation: true,
	}
}

// Engine is the functional Counter-light memory controller: it owns
// the keys, the counters and integrity tree, the memoization table,
// and a simulated ECC DRAM array, and moves real bytes through the
// full encrypt/MAC/ECC pipeline of Figs. 11-14.
type Engine struct {
	opts       EngineOptions
	cipherName string                // resolved AES backend name
	cls        []*cipher.Counterless // one per VM (§IV-D)
	cm         *cipher.CounterMode   // single global key
	ctrs       *ctrblock.Store
	memo       *memoize.Table
	mem        map[uint64]ecc.CodeWord // block-aligned address -> stored codeword

	// refCls/refCm are lazily built reference-backend twins of the
	// engine's ciphers (same keys, aes.BackendRef). The differential
	// oracle recomputes through them so a broken fast backend diverges
	// from the oracle instead of agreeing with itself.
	refCls []*cipher.Counterless
	refCm  *cipher.CounterMode

	// padCache is a direct-mapped cache of counter-mode pads keyed by
	// (counter, address) — the software analogue of the hardware
	// starting the OTP AES while data is in flight. Pads are pure
	// functions of (counter, address), so entries never go stale; a
	// mismatch simply recomputes. It lets the MAC check and the
	// decrypt of one read share a single pad derivation.
	padCache [padCacheSize]padCacheEntry

	// permanentCounterless records blocks whose counters saturated
	// (§IV-C) or that were mapped out of a faulty rank (§IV-E).
	permanentCounterless map[uint64]bool
	// vmOf records which VM's counterless key encrypted each block
	// (counter-mode blocks all share the global key).
	vmOf map[uint64]int

	m      engineMetrics
	tracer *obs.Tracer // optional; the functional engine has no sim
	// clock, so events are stamped with the operation index instead
	// of picoseconds.
}

// engineMetrics holds the functional-path event counts as obs
// instruments; EngineStats stays the exported view type.
type engineMetrics struct {
	reads, writes     obs.Counter
	counterModeWrites obs.Counter
	counterlessWrites obs.Counter
	memoHits          obs.Counter
	memoMisses        obs.Counter
	corrections       obs.Counter
	entropyResolved   obs.Counter
	dues              obs.Counter
	macFailures       obs.Counter
	eccTrials         obs.Histogram // trials per correction-path read
}

// EngineStats counts functional-path events.
type EngineStats struct {
	Reads, Writes        uint64
	CounterModeWrites    uint64
	CounterlessWrites    uint64
	MemoHits, MemoMisses uint64
	Corrections          uint64
	EntropyResolved      uint64
	DUEs                 uint64
	MACFailures          uint64 // reads whose fast-path MAC check failed
}

// Add accumulates o into s.
func (s *EngineStats) Add(o EngineStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.CounterModeWrites += o.CounterModeWrites
	s.CounterlessWrites += o.CounterlessWrites
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.Corrections += o.Corrections
	s.EntropyResolved += o.EntropyResolved
	s.DUEs += o.DUEs
	s.MACFailures += o.MACFailures
}

// padCacheSize is the number of direct-mapped pad-cache slots (a
// power of two; 64 bytes of pad plus tags per slot ≈ 24 KB total,
// comparable to the paper's on-chip table budgets).
const padCacheSize = 256

type padCacheEntry struct {
	ctr, addr uint64
	pad       cipher.Block
	otp       mix.Word // the MAC's dedicated OTP word
	valid     bool
}

// cmMACSecret seeds the counter-mode GF(2^64) MAC key schedule.
const cmMACSecret = 0x5eed0fc0de15BAD1

// clsMACKey is the counterless SHA-3 MAC key.
var clsMACKey = []byte("counterless-mac-key")

// clsKeysFor derives VM vm's deterministic counterless data/tweak key
// pair; newCounterless/ReferenceCounterlessCipher must build from the
// same bytes so the oracle twin matches the engine bit for bit.
func clsKeysFor(keyBytes, vm int) (dataKey, tweakKey []byte) {
	dataKey = make([]byte, keyBytes)
	dataKey[0] = 0x01
	dataKey[1] = byte(vm) // per-VM counterless key (§IV-D)
	tweakKey = make([]byte, keyBytes)
	tweakKey[0] = 0x02
	tweakKey[1] = byte(vm)
	return dataKey, tweakKey
}

// cmKeyFor derives the single global counter-mode key.
func cmKeyFor(keyBytes int) []byte {
	key := make([]byte, keyBytes)
	key[0] = 0x03
	return key
}

// NewEngine builds a functional engine with fresh random-free (zero)
// keys — determinism matters more than secrecy in a simulator; callers
// needing distinct keys can vary them via the cipher packages.
func NewEngine(opts EngineOptions) (*Engine, error) {
	if opts.AESKeyBytes != 16 && opts.AESKeyBytes != 32 {
		return nil, fmt.Errorf("core: AES key must be 16 or 32 bytes, got %d", opts.AESKeyBytes)
	}
	if opts.MemSize == 0 || opts.MemSize%64 != 0 {
		return nil, fmt.Errorf("core: invalid memory size %d", opts.MemSize)
	}
	if opts.VMs <= 0 {
		opts.VMs = 1
	}
	if opts.CounterLimit == 0 {
		opts.CounterLimit = ctrblock.CounterMax
	}
	backend := opts.Cipher
	if backend == "" {
		backend = aes.DefaultBackend()
	}
	cls := make([]*cipher.Counterless, opts.VMs)
	for vm := range cls {
		clsKey, tweakKey := clsKeysFor(opts.AESKeyBytes, vm)
		var err error
		cls[vm], err = cipher.NewCounterlessBackend(backend, clsKey, tweakKey, clsMACKey)
		if err != nil {
			return nil, err
		}
	}
	cm, err := cipher.NewCounterModeBackend(backend, cmKeyFor(opts.AESKeyBytes), cmMACSecret, nil)
	if err != nil {
		return nil, err
	}
	if pf := opts.Profile; pf != nil {
		cm.SetProbes(pf.PadBatch, pf.MAC)
		for _, c := range cls {
			c.SetMACProbe(pf.MAC)
		}
	}
	ctrs, err := ctrblock.New(opts.MemSize, 64)
	if err != nil {
		return nil, err
	}
	if opts.MemoEntries <= 0 {
		opts.MemoEntries = 128
	}
	return &Engine{
		opts:                 opts,
		cipherName:           backend,
		cls:                  cls,
		cm:                   cm,
		ctrs:                 ctrs,
		memo:                 memoize.New(opts.MemoEntries, 0, cm.CounterAES),
		mem:                  make(map[uint64]ecc.CodeWord),
		permanentCounterless: make(map[uint64]bool),
		vmOf:                 make(map[uint64]int),
	}, nil
}

// Stats returns a copy of the engine's counters (a thin view over
// the obs instruments).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Reads:             e.m.reads.Value(),
		Writes:            e.m.writes.Value(),
		CounterModeWrites: e.m.counterModeWrites.Value(),
		CounterlessWrites: e.m.counterlessWrites.Value(),
		MemoHits:          e.m.memoHits.Value(),
		MemoMisses:        e.m.memoMisses.Value(),
		Corrections:       e.m.corrections.Value(),
		EntropyResolved:   e.m.entropyResolved.Value(),
		DUEs:              e.m.dues.Value(),
		MACFailures:       e.m.macFailures.Value(),
	}
}

// RegisterMetrics exposes the engine's counters through a registry
// under the given labels.
func (e *Engine) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterCounter("engine_reads_total", &e.m.reads, labels...)
	reg.RegisterCounter("engine_writes_total", &e.m.writes, labels...)
	reg.RegisterCounter("engine_counter_mode_writes_total", &e.m.counterModeWrites, labels...)
	reg.RegisterCounter("engine_counterless_writes_total", &e.m.counterlessWrites, labels...)
	reg.RegisterCounter("engine_memo_hits_total", &e.m.memoHits, labels...)
	reg.RegisterCounter("engine_memo_misses_total", &e.m.memoMisses, labels...)
	reg.RegisterCounter("engine_corrections_total", &e.m.corrections, labels...)
	reg.RegisterCounter("engine_entropy_resolved_total", &e.m.entropyResolved, labels...)
	reg.RegisterCounter("engine_dues_total", &e.m.dues, labels...)
	reg.RegisterCounter("engine_mac_failures_total", &e.m.macFailures, labels...)
	reg.RegisterHistogram("engine_ecc_trials", &e.m.eccTrials, labels...)
	e.ctrs.RegisterMetrics(reg, append(labels[:len(labels):len(labels)], obs.L("cache", "ctrblock"))...)
}

// SetTracer installs (or clears, with nil) the event tracer. Events
// are stamped with the engine's operation index (reads+writes so
// far), not picoseconds: the functional engine has no sim clock.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// opIndex is the engine's event timestamp: the number of operations
// completed or in flight.
func (e *Engine) opIndex() int64 {
	return int64(e.m.reads.Value() + e.m.writes.Value())
}

// Counters exposes the counter store (tests exercise replay attacks
// through it).
func (e *Engine) Counters() *ctrblock.Store { return e.ctrs }

// Memo exposes the memoization table.
func (e *Engine) Memo() *memoize.Table { return e.memo }

// CounterCipher exposes the counter-mode cipher. The verification
// oracle (internal/check) recomputes pads, counter-AES results, and
// MACs independently through it, so the RMCC memoization table can be
// checked word-for-word against direct AES.
func (e *Engine) CounterCipher() *cipher.CounterMode { return e.cm }

// CounterlessCipher exposes VM vm's counterless cipher (nil when vm
// is out of range), for the same independent-recomputation checks.
func (e *Engine) CounterlessCipher(vm int) *cipher.Counterless {
	if vm < 0 || vm >= len(e.cls) {
		return nil
	}
	return e.cls[vm]
}

// CipherBackend reports the resolved AES backend name the engine's
// ciphers run on (perf snapshots record it).
func (e *Engine) CipherBackend() string { return e.cipherName }

// ReferenceCounterCipher returns a counter-mode cipher with the
// engine's keys on the reference AES backend. The differential oracle
// recomputes through it so a fast backend is checked against an
// independent implementation, not against itself. Built lazily and
// cached; when the engine already runs the reference backend it is the
// engine's own cipher.
func (e *Engine) ReferenceCounterCipher() *cipher.CounterMode {
	if e.cipherName == aes.BackendRef {
		return e.cm
	}
	if e.refCm == nil {
		cm, err := cipher.NewCounterModeBackend(aes.BackendRef, cmKeyFor(e.opts.AESKeyBytes), cmMACSecret, nil)
		if err != nil {
			panic("core: reference counter cipher: " + err.Error())
		}
		e.refCm = cm
	}
	return e.refCm
}

// ReferenceCounterlessCipher is ReferenceCounterCipher for VM vm's
// counterless cipher (nil when vm is out of range).
func (e *Engine) ReferenceCounterlessCipher(vm int) *cipher.Counterless {
	if vm < 0 || vm >= len(e.cls) {
		return nil
	}
	if e.cipherName == aes.BackendRef {
		return e.cls[vm]
	}
	if e.refCls == nil {
		e.refCls = make([]*cipher.Counterless, len(e.cls))
	}
	if e.refCls[vm] == nil {
		dataKey, tweakKey := clsKeysFor(e.opts.AESKeyBytes, vm)
		cls, err := cipher.NewCounterlessBackend(aes.BackendRef, dataKey, tweakKey, clsMACKey)
		if err != nil {
			panic("core: reference counterless cipher: " + err.Error())
		}
		e.refCls[vm] = cls
	}
	return e.refCls[vm]
}

// padFor returns the counter-mode pad and MAC OTP word for (ctr,
// addr), serving from the direct-mapped pad cache when a prior MAC
// check or decrypt already derived it. On a miss it derives both with
// one six-block batched AES and fills the slot.
func (e *Engine) padFor(ctr, addr uint64) (cipher.Block, mix.Word) {
	slot := &e.padCache[(addr>>6)&(padCacheSize-1)]
	if slot.valid && slot.addr == addr && slot.ctr == ctr {
		return slot.pad, slot.otp
	}
	pad, otp := e.cm.PadWithMAC(ctr, addr)
	*slot = padCacheEntry{ctr: ctr, addr: addr, pad: pad, otp: otp, valid: true}
	return pad, otp
}

// IsPermanentCounterless reports whether the block has permanently
// switched to counterless mode (saturated counter, §IV-C, or
// ForceCounterless).
func (e *Engine) IsPermanentCounterless(addr uint64) bool { return e.permanentCounterless[addr] }

func (e *Engine) checkAddr(addr uint64) error {
	if addr%64 != 0 {
		return fmt.Errorf("core: address %#x not block aligned", addr)
	}
	if addr >= e.opts.MemSize {
		return fmt.Errorf("core: address %#x beyond memory size %#x", addr, e.opts.MemSize)
	}
	return nil
}

// Write encrypts and stores a block for VM 0. mode selects the
// writeback encryption mode the epoch monitor decided (paper §IV-B);
// blocks with saturated counters are forced counterless regardless.
func (e *Engine) Write(addr uint64, plain cipher.Block, mode epoch.Mode) error {
	return e.WriteAs(0, addr, plain, mode)
}

// WriteAs is Write on behalf of a specific VM. Counter-mode blocks
// share the single global key (§IV-D: the counter makes every
// ciphertext unique, so one key and one memoization table serve all
// VMs); counterless blocks use the VM's own key to block the
// ciphertext side channel.
func (e *Engine) WriteAs(vm int, addr uint64, plain cipher.Block, mode epoch.Mode) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	if vm < 0 || vm >= len(e.cls) {
		return fmt.Errorf("core: VM %d out of range [0,%d)", vm, len(e.cls))
	}
	e.m.writes.Inc()
	if e.permanentCounterless[addr] {
		mode = epoch.Counterless
	}
	if mode == epoch.CounterMode {
		// Verify the counter path before trusting the old counter
		// (Fig. 10's attack is caught here), then advance it to a
		// memoized value.
		if !e.ctrs.VerifyCounter(addr) {
			return fmt.Errorf("core: integrity tree verification failed at %#x (counter replay?)", addr)
		}
		old := e.ctrs.Counter(addr)
		next := e.memo.NextWriteCounter(old)
		if next > e.opts.CounterLimit && old < e.opts.CounterLimit {
			// The shared write value W outran the limit while this
			// block's own counter still has headroom. Saturation is a
			// per-block condition (§IV-C), so take the unmemoized
			// plain increment instead of permanently degrading the
			// block to counterless — otherwise one hot W would
			// spuriously saturate every block it touches.
			next = old + 1
		}
		if next > e.opts.CounterLimit {
			// Counter saturated: this block is counterless forever
			// (until "reboot"; §IV-C).
			e.permanentCounterless[addr] = true
			mode = epoch.Counterless
			e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatCtr, "counter_saturated",
				obs.A("addr", int64(addr)), obs.A("counter", int64(next)))
		} else {
			if err := e.ctrs.Increment(addr, next); err != nil {
				return fmt.Errorf("core: counter update: %w", err)
			}
			ct := e.cm.Encrypt(uint64(next), addr, plain)
			mac := e.cm.MAC(uint64(next), addr, plain, next)
			e.mem[addr] = ecc.Encode(ct, mac, uint64(next))
			e.vmOf[addr] = vm
			e.m.counterModeWrites.Inc()
			return nil
		}
	}
	// Counterless writeback: EncryptionMetadata is the all-ones flag.
	e.vmOf[addr] = vm
	cls := e.cls[vm]
	ct := cls.Encrypt(addr, plain)
	mac := cls.MAC(addr, ct, uint32(ctrblock.CounterlessFlag))
	e.mem[addr] = ecc.Encode(ct, mac, ctrblock.CounterlessFlag)
	e.m.counterlessWrites.Inc()
	return nil
}

// clsFor returns the counterless engine for the VM that owns addr
// (the real MC gets the key ID alongside the request; we keep it in a
// side table).
func (e *Engine) clsFor(addr uint64) *cipher.Counterless {
	return e.cls[e.vmOf[addr]]
}

// ReadInfo describes how a read was served.
type ReadInfo struct {
	Mode            epoch.Mode // encryption mode the block was in
	MemoHit         bool       // counter-AES served from the memoization table
	Corrected       bool       // error correction ran and succeeded
	BadChip         int        // corrected chip (-1 if none)
	EntropyResolved bool       // §IV-E disambiguation picked the candidate
}

// Read fetches, verifies, and decrypts the block at addr, running the
// fault-free fast path of Fig. 13 and falling back to the Fig. 14
// correction flow when the MAC check fails.
func (e *Engine) Read(addr uint64) (cipher.Block, ReadInfo, error) {
	info := ReadInfo{BadChip: -1}
	if err := e.checkAddr(addr); err != nil {
		return cipher.Block{}, info, err
	}
	cw, ok := e.mem[addr]
	if !ok {
		return cipher.Block{}, info, fmt.Errorf("core: read of unwritten block %#x", addr)
	}
	e.m.reads.Inc()

	// Fast path: decode EncryptionMetadata from the parity and check
	// the mode-appropriate MAC.
	meta := cw.DecodeMeta()
	ct := cw.Block()
	if mac, mode, ok := e.macFor(addr, ct, meta); ok && mac == cw.MAC {
		plain, memoHit := e.decrypt(addr, ct, meta)
		info.Mode = mode
		info.MemoHit = memoHit
		return plain, info, nil
	}
	e.m.macFailures.Inc()
	if e.opts.DisableCorrection {
		e.m.dues.Inc()
		e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatECC, "due",
			obs.A("addr", int64(addr)), obs.A("correction_disabled", 1))
		return cipher.Block{}, info, fmt.Errorf("core: MAC check failed at %#x (correction disabled)", addr)
	}

	// Correction path: two EncryptionMetadata hypotheses (Fig. 14).
	res := ecc.Correct(cw, e.hypotheses(addr))
	e.m.eccTrials.Add(int64(res.Trials))
	e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatECC, "correction_attempt",
		obs.A("addr", int64(addr)), obs.A("trials", int64(res.Trials)),
		obs.A("candidates", int64(len(res.Candidates))))
	if res.OK {
		e.m.corrections.Inc()
		e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatECC, "hypothesis_chosen",
			obs.A("hypothesis", int64(res.Hypothesis)), obs.A("bad_chip", int64(res.BadChip)))
		plain, memoHit := e.decrypt(addr, res.Data, res.Meta)
		info.Mode = modeOf(res.Meta)
		info.MemoHit = memoHit
		info.Corrected = true
		info.BadChip = res.BadChip
		return plain, info, nil
	}
	// Ambiguity: try the entropy disambiguator (§IV-E) across the
	// matching candidates.
	if e.opts.EntropyDisambiguation && len(res.Candidates) > 1 {
		plains := make([]cipher.Block, len(res.Candidates))
		for i, c := range res.Candidates {
			plains[i], _ = e.decrypt(addr, c.Data, c.Meta)
		}
		if pick := entropy.Classify(plains); pick >= 0 {
			c := res.Candidates[pick]
			e.m.corrections.Inc()
			e.m.entropyResolved.Inc()
			e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatECC, "hypothesis_chosen",
				obs.A("hypothesis", int64(c.Hypothesis)), obs.A("bad_chip", int64(c.BadChip)),
				obs.A("entropy_resolved", 1))
			info.Mode = modeOf(c.Meta)
			info.Corrected = true
			info.EntropyResolved = true
			info.BadChip = c.BadChip
			return plains[pick], info, nil
		}
	}
	e.m.dues.Inc()
	e.tracer.Emit(e.opIndex(), obs.PhaseInstant, obs.CatECC, "due",
		obs.A("addr", int64(addr)), obs.A("candidates", int64(len(res.Candidates))))
	return cipher.Block{}, info, fmt.Errorf("core: detected uncorrectable error at %#x (%d candidates)", addr, len(res.Candidates))
}

// macFor recomputes the MAC the block should carry given its decoded
// metadata, dispatching through the shared mode semantics. ok is false
// when the metadata is out of range (cannot be a legal counter), which
// routes the read to the correction path.
func (e *Engine) macFor(addr uint64, ct cipher.Block, meta uint64) (mac uint64, mode epoch.Mode, ok bool) {
	mc := e.modeFor(meta)
	mac, ok = mc.MAC(addr, ct, meta)
	return mac, mc.Mode(), ok
}

// decrypt applies the mode the metadata selects, going through the
// memoization table for counter mode exactly as the hardware would.
func (e *Engine) decrypt(addr uint64, ct cipher.Block, meta uint64) (cipher.Block, bool) {
	return e.modeFor(meta).Decrypt(addr, ct, meta)
}

// hypotheses builds the two Fig. 14 correction hypotheses: the counter
// value fetched from the counter block, and the counterless flag
// (order matters: the counter hypothesis is tried first).
func (e *Engine) hypotheses(addr uint64) []ecc.Hypothesis {
	return []ecc.Hypothesis{
		counterCipherPath{e}.Hypothesis(addr),
		counterlessCipherPath{e}.Hypothesis(addr),
	}
}

// InjectFault corrupts one chip of the stored block (for reliability
// tests and the secure_memory example). chip 0..7 are data chips, 8 is
// the MAC chip, 9 the parity chip.
func (e *Engine) InjectFault(addr uint64, chip int, pattern uint64) error {
	if err := e.checkAddr(addr); err != nil {
		return err
	}
	cw, ok := e.mem[addr]
	if !ok {
		return fmt.Errorf("core: no block at %#x", addr)
	}
	switch {
	case chip >= 0 && chip < ecc.DataChips:
		cw.Data[chip] ^= pattern
	case chip == ecc.MACChip:
		cw.MAC ^= pattern
	case chip == ecc.ParityChip:
		cw.Parity ^= pattern
	default:
		return fmt.Errorf("core: invalid chip %d", chip)
	}
	e.mem[addr] = cw
	return nil
}

// Snapshot captures the raw stored codeword (what a bus probe would
// see); Restore writes it back verbatim — together they model a
// physical replay of a whole data block, which Counter-light, like
// counterless encryption, does not detect (§IV-F).
func (e *Engine) Snapshot(addr uint64) (ecc.CodeWord, bool) {
	cw, ok := e.mem[addr]
	return cw, ok
}

// Restore implements the replay half of Snapshot.
func (e *Engine) Restore(addr uint64, cw ecc.CodeWord) {
	e.mem[addr] = cw
}

// ForceCounterless permanently switches a block (e.g. one in a rank
// diagnosed with a hard fault, §IV-E) to counterless mode.
func (e *Engine) ForceCounterless(addr uint64) { e.permanentCounterless[addr] = true }
