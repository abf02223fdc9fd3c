package mcpool

import (
	"bytes"
	"sync/atomic"
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/epoch"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

const us = int64(1000) // 1 µs on the pool clock

// testClock is a scripted pool clock. Each read returns now and then
// advances it by step. The worker reads it twice per batch, when it
// takes the shard lock and when it releases it, so every batch is
// busy for exactly step ns and a SubmitWait leaves the clock 2·step
// later.
type testClock struct{ now, step atomic.Int64 }

func (c *testClock) read() int64 {
	st := c.step.Load()
	return c.now.Add(st) - st
}

// set moves the clock to now with the given per-read step. Call it
// only while the pool is idle.
func (c *testClock) set(now, step int64) {
	c.now.Store(now)
	c.step.Store(step)
}

// newTestPool builds a pool on a scripted clock that starts at 0 and
// stands still.
func newTestPool(t *testing.T, cfg Config) (*Pool, *testClock) {
	t.Helper()
	if cfg.Engine == (core.EngineOptions{}) {
		cfg.Engine = testEngineOptions()
	}
	clk := &testClock{}
	p, err := newPool(cfg, clk.read)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, clk
}

// Auto writes follow the shard's §IV-B epoch monitor: counter mode on
// an idle shard, counterless once the shard has been busy 60 µs of a
// 100 µs epoch, counterless for the whole next epoch, and counter mode
// again after a quiet epoch. Response.Degraded, DegradedWrites, the
// stored modes and the KindDegrade events agree.
func TestAutoWritesFollowEpochMonitor(t *testing.T) {
	rec := flight.NewRing(64)
	p, clk := newTestPool(t, Config{Shards: 1, Flight: rec})
	var addr uint64
	write := func(at, busy int64) Response {
		t.Helper()
		clk.set(at, busy)
		addr += 64
		resp := p.SubmitWait(Request{Kind: OpWrite, Addr: addr, Auto: true, Data: [64]byte{byte(addr)}})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Degraded != (resp.Mode == epoch.Counterless) {
			t.Fatalf("write at %d µs: Degraded %v but stored mode %v", at/us, resp.Degraded, resp.Mode)
		}
		return resp
	}
	var degraded []uint64
	for _, step := range []struct {
		at, busy int64
		want     epoch.Mode
		why      string
	}{
		{0, 30 * us, epoch.CounterMode, "idle shard"},
		{40 * us, 30 * us, epoch.CounterMode, "decided before its own batch reached 60 µs busy"},
		{80 * us, 0, epoch.Counterless, "60 µs busy in this epoch: mid-epoch fallback"},
		{150 * us, 0, epoch.Counterless, "the epoch after a busy one starts counterless"},
		{250 * us, 0, epoch.CounterMode, "the quiet epoch before it returns to counter mode"},
	} {
		resp := write(step.at, step.busy)
		if resp.Mode != step.want {
			t.Fatalf("write at %d µs (%s): mode %v, want %v", step.at/us, step.why, resp.Mode, step.want)
		}
		if resp.Degraded {
			degraded = append(degraded, addr)
		}
	}

	agg := p.Aggregate()
	if agg.DegradedWrites != 2 || agg.CounterlessWrites != 2 || agg.CounterModeWrites != 3 {
		t.Errorf("degraded %d, counterless %d, counter %d; want 2, 2, 3",
			agg.DegradedWrites, agg.CounterlessWrites, agg.CounterModeWrites)
	}
	if got := p.CounterlessEpochs(); got != 2 {
		t.Errorf("counterless epochs %d, want 2 (one mid-epoch fallback, one whole epoch)", got)
	}
	var events []flight.Event
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flight.KindDegrade {
			events = append(events, ev)
		}
	}
	if len(events) != len(degraded) {
		t.Fatalf("%d KindDegrade events for %d degraded writes", len(events), len(degraded))
	}
	for i, ev := range events {
		if ev.Addr != degraded[i] || ev.B != 60_000 {
			t.Errorf("degrade event %d = %+v, want addr %#x and threshold 60000", i, ev, degraded[i])
		}
	}
	// The busy time in the epoch when each write applied: 60 µs in the
	// epoch that crossed the threshold, nothing yet in the next one.
	if events[0].A != 60_000 || events[1].A != 0 {
		t.Errorf("degrade events carry busy ns %d and %d, want 60000 and 0", events[0].A, events[1].A)
	}
}

// While a shard is counterless, explicit-mode writes still store the
// mode they ask for, and the journal bytes equal those of an idle pool
// that applied the same requests: the monitor moves only the Auto
// writes.
func TestExplicitModesIgnoreEpochMonitor(t *testing.T) {
	cfg := Config{Shards: 1, Persist: true}
	busy, clk := newTestPool(t, cfg)
	idle, _ := newTestPool(t, cfg)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Kind: OpWrite, Addr: uint64(i%8) * 64, Data: [64]byte{byte(i)}, Tag: i}
		if i%3 == 0 {
			reqs[i].Mode = epoch.Counterless
		}
	}
	reqs = append(reqs, Request{Kind: OpRead, Addr: 64, Tag: len(reqs)})

	// The first request keeps the busy shard's lock for 70 µs, so every
	// later one applies in a counterless epoch.
	clk.set(0, 70*us)
	for i, req := range reqs {
		if i == 1 {
			clk.set(80*us, 0)
			if !busy.Shedding() {
				t.Fatal("shard not counterless after 70 µs busy: the test proves nothing")
			}
		}
		for _, p := range []*Pool{busy, idle} {
			resp := p.SubmitWait(req)
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if req.Kind == OpWrite && (resp.Mode != req.Mode || resp.Degraded) {
				t.Fatalf("request %d: stored %v (degraded %v), asked for %v", i, resp.Mode, resp.Degraded, req.Mode)
			}
		}
	}
	if !busy.Shedding() || idle.Shedding() {
		t.Fatalf("shedding busy=%v idle=%v, want true and false", busy.Shedding(), idle.Shedding())
	}
	if a, b := busy.PersistedJournal(0), idle.PersistedJournal(0); !bytes.Equal(a, b) {
		t.Fatalf("journal bytes differ between a counterless and an idle shard (%d vs %d bytes)", len(a), len(b))
	}
}

// Shedding is the node-level admission signal: false on an idle pool,
// true while any shard is in a counterless epoch, and false again once
// that shard's deadline passes with no traffic at all.
func TestShedding(t *testing.T) {
	p, clk := newTestPool(t, Config{Shards: 2})
	if p.Shedding() {
		t.Fatal("Shedding true on an idle pool")
	}
	// One 60 µs batch on shard 0 crosses the threshold in epoch 0, so
	// shard 0 is counterless until the end of epoch 1.
	clk.set(0, 60*us)
	if resp := p.SubmitWait(Request{Kind: OpWrite, Addr: 0}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for _, tc := range []struct {
		at   int64
		want int
	}{
		{120 * us, 1},
		{200*us - 1, 1},
		{200 * us, 0},
		{10_000 * us, 0},
	} {
		clk.set(tc.at, 0)
		if got := p.CounterlessShards(); got != tc.want {
			t.Errorf("at %d ns: %d counterless shards, want %d", tc.at, got, tc.want)
		}
		if got := p.Shedding(); got != (tc.want > 0) {
			t.Errorf("at %d ns: Shedding %v", tc.at, got)
		}
	}
}

// TestInstrumentedSubmitWaitNoAllocs extends the zero-alloc gate to
// the fully instrumented configuration: profiler probes on, flight
// recorder on, and every Auto write degraded by a saturated shard
// monitor, so the degrade path is on the measured path. One shard
// sees every batch, so each one keeps it counterless.
func TestInstrumentedSubmitWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; future reuse cannot be alloc-free")
	}
	p, clk := newTestPool(t, Config{
		Shards:  1,
		Profile: prof.New(""),
		Flight:  flight.NewRing(256),
	})
	clk.set(0, 100*us) // every batch saturates its shard's epoch

	const blocks = 256
	req := Request{Kind: OpWrite, Auto: true}
	for i := 0; i < blocks; i++ {
		req.Addr = uint64(i) * 64
		req.Data[0] = byte(i)
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	var i uint64
	if allocs := testing.AllocsPerRun(200, func() {
		req.Addr = (i % blocks) * 64
		req.Data[0] = byte(i)
		i++
		if resp := p.SubmitWait(req); resp.Err != nil || !resp.Degraded {
			t.Fatalf("Auto write on a saturated shard: err %v, degraded %v", resp.Err, resp.Degraded)
		}
	}); allocs != 0 {
		t.Errorf("instrumented SubmitWait write allocates %.1f per op, want 0", allocs)
	}

	var rd Request
	rd.Kind = OpRead
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Addr = (i % blocks) * 64
		i++
		if resp := p.SubmitWait(rd); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}); allocs != 0 {
		t.Errorf("instrumented SubmitWait read allocates %.1f per op, want 0", allocs)
	}
}

// TestFlightRecordsPoolEvents checks the pool's recorder coverage:
// sampled submits, degradations and fault injections all land in the
// ring.
func TestFlightRecordsPoolEvents(t *testing.T) {
	rec := flight.NewRing(1024)
	p, clk := newTestPool(t, Config{Shards: 1, QueueDepth: 8, Flight: rec})
	// Every batch keeps the shard busy a whole epoch, so every batch
	// after the first degrades its Auto writes.
	clk.set(0, 100*us)
	futs := make([]*Future, 0, 256)
	for i := 0; i < 256; i++ {
		fut, err := p.Submit(Request{Kind: OpWrite, Addr: uint64(i%32) * 64, Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, f := range futs {
		if resp := f.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if resp := p.SubmitWait(Request{Kind: OpFault, Addr: 64, Chip: 1, Pattern: 0xFF}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	p.Close()

	kinds := map[flight.Kind]int{}
	for _, ev := range rec.Snapshot() {
		kinds[ev.Kind]++
	}
	if kinds[flight.KindSubmit] == 0 {
		t.Error("no sampled submit events recorded")
	}
	if kinds[flight.KindDegrade] == 0 {
		t.Error("no degradation events recorded despite a saturated shard")
	}
	if kinds[flight.KindFault] == 0 {
		t.Error("no fault event recorded")
	}
}
