package mcpool

import (
	"bytes"
	"strings"
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
)

// sampleEntries exercises every field combination the wire format can
// carry: reads, writes with/without tags, faults with negative chips,
// counterless and counter modes, codewords present and absent.
func sampleEntries() []Entry {
	cw := ecc.CodeWord{MAC: 0xa5a5, Parity: 0x5a5a}
	for i := range cw.Data {
		cw.Data[i] = uint64(i) * 0x1111111111111111
	}
	return []Entry{
		{Seq: 1, Kind: OpRead, Addr: 0},
		{Seq: 2, Kind: OpWrite, Addr: 64, VM: 2, Mode: epoch.CounterMode,
			Meta: 7, Ctr: 7, Tag: 11, HasTag: true, CW: cw, HasCW: true},
		{Seq: 3, Kind: OpWrite, Addr: 128, VM: 0, Mode: epoch.Counterless,
			Meta: 1<<32 - 1, PermCL: true, CW: cw, HasCW: true},
		{Seq: 4, Kind: OpFault, Addr: 64, Chip: 9, Pattern: 1 << 63,
			Ctr: 7, Tag: -1, HasTag: true, CW: cw, HasCW: true},
		{Seq: 5, Kind: OpFault, Addr: 192, Chip: 0, Pattern: 1},
		{Seq: 1 << 40, Kind: OpWrite, Addr: 1 << 30, VM: 7, Mode: epoch.CounterMode,
			Meta: 1<<32 - 2, Ctr: 1<<32 - 2, Tag: 1 << 50, HasTag: true},
		// The pool's records: response digests, and error bits on
		// rejected ops.
		{Seq: 6, Kind: OpRead, Addr: 64, Mode: epoch.CounterMode, Tag: 12, HasTag: true,
			Sum: 0xfedcba9876543210, HasSum: true},
		{Seq: 7, Kind: OpWrite, Addr: 1 << 40, VM: 99, Err: true, Sum: 1, HasSum: true},
		{Seq: 8, Kind: OpFault, Addr: 256, Chip: 3, Pattern: 5, Err: true, Tag: 13, HasTag: true},
	}
}

// Round-trip property: encode → decode → re-encode must be
// byte-identical, and the decoded entries must equal the originals.
func TestJournalRoundTrip(t *testing.T) {
	entries := sampleEntries()
	var buf []byte
	for _, e := range entries {
		buf = AppendEntry(buf, e)
	}
	got, n, err := DecodeJournal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("decoded %d of %d bytes", n, len(buf))
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d round-tripped to %+v, want %+v", i, got[i], entries[i])
		}
	}
	var again []byte
	for _, e := range got {
		again = AppendEntry(again, e)
	}
	if !bytes.Equal(again, buf) {
		t.Error("re-encoding decoded entries is not byte-identical")
	}
}

// Every strict prefix of a record is a torn tail, never a panic and
// never a bogus decode.
func TestJournalTornTail(t *testing.T) {
	var buf []byte
	for _, e := range sampleEntries() {
		buf = AppendEntry(buf, e)
	}
	whole, _, err := DecodeJournal(buf)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := 0
	{
		_, n, err := DecodeEntry(buf)
		if err != nil {
			t.Fatal(err)
		}
		firstLen = n
	}
	for cut := 1; cut < len(buf); cut++ {
		entries, n, err := DecodeJournal(buf[:cut])
		if n > cut {
			t.Fatalf("cut %d: consumed %d bytes beyond the data", cut, n)
		}
		if cut%firstLen == 0 && err == nil {
			continue // cut landed exactly on a record boundary
		}
		if err != ErrTorn && err != nil {
			// A cut can also land mid-stream on bytes that happen to
			// decode as garbage lengths; those must error, not panic.
			continue
		}
		if err == ErrTorn && len(entries) > len(whole) {
			t.Fatalf("cut %d: torn prefix decoded more entries than the whole", cut)
		}
	}
}

// Malformed journals — bad CRC, bad kind, bad mode, oversized length,
// unknown flags, trailing garbage — error cleanly, never panic.
func TestJournalMalformed(t *testing.T) {
	good := AppendEntry(nil, sampleEntries()[1])

	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		return b
	}
	// Corrupt each body byte in turn: the CRC must catch every one.
	for off := 8; off < len(good); off++ {
		if _, _, err := DecodeEntry(flip(off)); err == nil || err == ErrTorn {
			t.Fatalf("body corruption at byte %d not rejected (err=%v)", off, err)
		} else if !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("body corruption at byte %d: unexpected error %v", off, err)
		}
	}
	// Zero and oversized length prefixes are rejected before any
	// allocation.
	zero := append([]byte(nil), good...)
	zero[0], zero[1], zero[2], zero[3] = 0, 0, 0, 0
	if _, _, err := DecodeEntry(zero); err == nil {
		t.Error("zero length accepted")
	}
	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeEntry(huge); err == nil || err == ErrTorn {
		t.Errorf("oversized length: err=%v, want corruption error", err)
	}
	if _, _, err := DecodeEntry(nil); err != ErrTorn {
		t.Errorf("empty data: err=%v, want ErrTorn", err)
	}
}

// Entry.Apply rebuilds a fresh engine to the journaled state.
func TestJournalApply(t *testing.T) {
	opts := testEngineOptions()
	src, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var plain [64]byte
	plain[0] = 0xab
	if err := src.WriteAs(0, 64, plain, epoch.CounterMode); err != nil {
		t.Fatal(err)
	}
	cw, _ := src.Snapshot(64)
	e := Entry{
		Seq: 1, Kind: OpWrite, Addr: 64, VM: 0, Mode: epoch.CounterMode,
		Meta: cw.DecodeMeta(), Ctr: src.Counters().Counter(64),
		CW: cw, HasCW: true,
	}
	dst, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(dst); err != nil {
		t.Fatal(err)
	}
	got, _, err := dst.Read(64)
	if err != nil {
		t.Fatalf("read after Apply: %v", err)
	}
	if got != plain {
		t.Error("Apply did not reproduce the journaled block")
	}
	// Applying the same entry again changes nothing (idempotence).
	if err := e.Apply(dst); err != nil {
		t.Fatal(err)
	}
	if got2, _, err := dst.Read(64); err != nil || got2 != plain {
		t.Error("re-Apply broke the block")
	}
}

// Pool lifecycle: run a trace with Persist on, take the persisted
// journal bytes as-of a FlushBarrier, replay them on fresh engines,
// and compare against the live shard engines block for block — the
// in-process model of crash-at-barrier recovery.
func TestPoolPersistLifecycle(t *testing.T) {
	opts := testEngineOptions()
	opts.VMs = 2
	p, err := New(Config{Shards: 4, Watermark: -1, Persist: true, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sched := Schedule(ScheduleConfig{Ops: 2000, Blocks: 256, ReadFraction: 0.4, VMs: 2, Seed: 7})
	futs := make([]*Future, len(sched))
	for i := range sched {
		sched[i].Tag = i
		if futs[i], err = p.Submit(sched[i]); err != nil {
			t.Fatal(err)
		}
	}
	seqs := p.FlushBarrier()
	for s := 0; s < p.NumShards(); s++ {
		raw := p.PersistedJournal(s)
		entries, _, err := DecodeJournal(raw)
		if err != nil {
			t.Fatalf("shard %d journal: %v", s, err)
		}
		if len(entries) == 0 {
			t.Fatalf("shard %d journaled nothing", s)
		}
		var maxSeq uint64
		rebuilt, err := core.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Seq <= maxSeq {
				t.Fatalf("shard %d journal seq not increasing at %d", s, e.Seq)
			}
			maxSeq = e.Seq
			// Each record binds the response its submitter received.
			resp := futs[e.Tag].Wait()
			if e.Err != (resp.Err != nil) {
				t.Fatalf("shard %d seq %d: error bit %v, response err %v", s, e.Seq, e.Err, resp.Err)
			}
			if want := ResponseSum(rebuilt.CounterCipher(), sched[e.Tag], resp); !e.HasSum || e.Sum != want {
				t.Fatalf("shard %d seq %d: Sum %#x (present %v), response digests to %#x", s, e.Seq, e.Sum, e.HasSum, want)
			}
			if err := e.Apply(rebuilt); err != nil {
				t.Fatalf("shard %d replay: %v", s, err)
			}
		}
		if maxSeq != seqs[s] {
			t.Errorf("shard %d journal tops out at seq %d, barrier says %d", s, maxSeq, seqs[s])
		}
		p.WithShardEngine(s, func(live *core.Engine) {
			if d := core.DiffState(rebuilt, live); d != "" {
				t.Errorf("shard %d: rebuilt vs live: %s", s, d)
			}
		})
	}
}

// TestResponseSumKeyedByEngine pins the journal digest to the
// engine's secrets: every Sum of a short durable run recomputes on the
// engine's textbook-AES reference twin, an engine with a different
// counter-mode key digests the same responses differently, and the
// digest allocates nothing.
func TestResponseSumKeyedByEngine(t *testing.T) {
	opts := testEngineOptions()
	p, err := New(Config{Shards: 2, Watermark: -1, Persist: true, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sched := Schedule(ScheduleConfig{Ops: 400, Blocks: 64, ReadFraction: 0.5, Seed: 11})
	futs := make([]*Future, len(sched))
	for i := range sched {
		sched[i].Tag = i
		if futs[i], err = p.Submit(sched[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.FlushBarrier()
	twin, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := twin.ReferenceCounterCipher()
	opts.AESKeyBytes = 32
	other, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	sums := 0
	for s := 0; s < p.NumShards(); s++ {
		entries, _, err := DecodeJournal(p.PersistedJournal(s))
		if err != nil {
			t.Fatalf("shard %d journal: %v", s, err)
		}
		for _, e := range entries {
			if !e.HasSum {
				continue
			}
			req, resp := sched[e.Tag], futs[e.Tag].Wait()
			if want := ResponseSum(ref, req, resp); e.Sum != want {
				t.Fatalf("shard %d seq %d: Sum %#x, reference twin digests %#x", s, e.Seq, e.Sum, want)
			}
			if ResponseSum(other.CounterCipher(), req, resp) == e.Sum {
				t.Fatalf("shard %d seq %d: a 32-byte counter-mode key gives the same Sum %#x", s, e.Seq, e.Sum)
			}
			sums++
		}
	}
	if sums < len(sched)/2 {
		t.Fatalf("only %d of %d ops carry a Sum", sums, len(sched))
	}
	cm := twin.CounterCipher()
	req := Request{Kind: OpWrite, Data: [64]byte{1, 2, 3}}
	if n := testing.AllocsPerRun(100, func() { ResponseSum(cm, req, Response{}) }); n != 0 {
		t.Errorf("ResponseSum: %v allocs/op, want 0", n)
	}
}

// FuzzJournalDecode: arbitrary bytes must decode to an error or a
// valid entry list — never a panic — and every successful decode must
// re-encode byte-identically (the round-trip property under fuzzing).
func FuzzJournalDecode(f *testing.F) {
	var whole []byte
	for _, e := range sampleEntries() {
		whole = AppendEntry(whole, e)
		f.Add(append([]byte(nil), whole...))
	}
	f.Add(whole[:len(whole)-3]) // torn tail
	crc := append([]byte(nil), whole...)
	crc[10] ^= 0x40 // body corruption
	f.Add(crc)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, n, err := DecodeJournal(data)
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil && err != ErrTorn {
			return // corruption: rejected is all we ask
		}
		var again []byte
		for _, e := range entries {
			again = AppendEntry(again, e)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("decoded prefix does not re-encode byte-identically")
		}
	})
}
