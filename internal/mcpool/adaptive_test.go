package mcpool

import (
	"testing"

	"counterlight/internal/crypto/aes"
	"counterlight/internal/epoch"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// TestWatermarkDefaults pins the static defaulting rules, including
// the tiny-queue boundary the old 3/4 rule got wrong (QueueDepth 1-2
// rounded to watermark 1, demoting every pipelined Auto write).
func TestWatermarkDefaults(t *testing.T) {
	for _, tc := range []struct {
		queueDepth, want int
	}{
		{1, 1}, // capacity 1: degrade only with a request already pending
		{2, 2}, // 3/4 would round to 1 = half-full; use genuinely-full
		{3, 2}, // first depth where 3/4 rounds sanely
		{4, 3},
		{256, 192},
	} {
		if got := defaultWatermark(tc.queueDepth); got != tc.want {
			t.Errorf("defaultWatermark(%d) = %d, want %d", tc.queueDepth, got, tc.want)
		}
	}

	// Through New: 0 QueueDepth means the 256 default, and an explicit
	// -1 watermark survives as "disabled".
	p, err := New(Config{Shards: 1, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Watermark(); got != 192 {
		t.Errorf("default pool watermark = %d, want 192", got)
	}
	p.Close()

	p, err = New(Config{Shards: 1, QueueDepth: 2, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Watermark(); got != 2 {
		t.Errorf("QueueDepth 2 pool watermark = %d, want 2 (full, not half-full)", got)
	}
	p.Close()

	p, err = New(Config{Shards: 1, Watermark: -1, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Watermark(); got != -1 {
		t.Errorf("disabled pool watermark = %d, want -1", got)
	}
	p.Close()
}

// TestTinyQueueNotAlwaysDegraded is the regression the defaulting fix
// exists for: a QueueDepth-2 pool with a single in-flight submitter
// must not demote its Auto writes — the queue never reaches genuinely
// full from one closed-loop client.
func TestTinyQueueNotAlwaysDegraded(t *testing.T) {
	p, err := New(Config{Shards: 1, QueueDepth: 2, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 64; i++ {
		resp := p.SubmitWait(Request{Kind: OpWrite, Addr: uint64(i) * 64, Auto: true})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Degraded {
			t.Fatalf("op %d: closed-loop Auto write degraded on an empty queue", i)
		}
	}
}

// TestAdaptiveWatermarkMoves drives enough traffic through an
// adaptive pool for the controller to measure a service rate and move
// the watermark off its static seed, and checks the accounting
// surfaces (moves counter, flight events, live Watermark) agree.
func TestAdaptiveWatermarkMoves(t *testing.T) {
	rec := flight.NewRing(256)
	p, err := New(Config{
		Shards:            2,
		QueueDepth:        64,
		BatchMax:          8,
		AdaptiveWatermark: true,
		AdaptEvery:        2, // adapt fast so a short test observes moves
		Flight:            rec,
		Engine:            testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Profiler() == nil {
		t.Fatal("adaptive pool must create a profiler")
	}
	if p.FlightRing() != rec {
		t.Fatal("flight ring not attached")
	}

	seed := p.Watermark()
	var req Request
	req.Kind = OpWrite
	req.Mode = epoch.CounterMode
	for i := 0; i < 6000; i++ {
		req.Addr = uint64(i%1024) * 64
		req.Data[0] = byte(i)
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	p.FlushBarrier()

	if p.WatermarkMoves() == 0 {
		t.Fatalf("watermark never moved off its seed %d after 6000 ops", seed)
	}
	// The controller must have moved the watermark closer to the
	// Little's-law target implied by its own measurement (half-step
	// damping walks monotonically toward a stable target).
	perOp := p.Profiler().Service.EWMA()
	if perOp <= 0 {
		t.Fatal("service probe has no measurement")
	}
	target := int(float64(DefaultTargetDelayNs) / perOp)
	if target < 1 {
		target = 1
	}
	if target > 64 {
		target = 64
	}
	got := p.Watermark()
	if got < 1 || got > 64 {
		t.Fatalf("adaptive watermark %d escaped its [1, QueueDepth] clamp", got)
	}
	if abs(got-target) >= abs(seed-target) && got == seed {
		t.Errorf("watermark %d did not move toward measured target %d (seed %d, %.0f ns/op)",
			got, target, seed, perOp)
	}
	t.Logf("seed %d -> watermark %d (target %d at %.0f ns/op, %d moves)",
		seed, got, target, perOp, p.WatermarkMoves())
	var moves int
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flight.KindWatermark {
			moves++
			if ev.A == ev.B {
				t.Errorf("watermark event records no-op move %d -> %d", ev.A, ev.B)
			}
		}
	}
	if moves == 0 {
		t.Error("no watermark events in the flight ring")
	}

	// The profiler saw the traffic.
	snap := p.Profiler().Snapshot()
	if snap.Service.Count == 0 || snap.SubmitWait.Count == 0 || snap.PadBatch.Count == 0 {
		t.Errorf("profiler missed the hot path: %+v", snap)
	}
}

// TestAdaptiveWatermarkIsMeasurementDriven is the acceptance-criteria
// check: the same workload through the slow reference AES backend and
// the fast stdlib backend must settle on different watermarks,
// proving the knee comes from measured service time, not the static
// Rounds() model. The ref backend's per-op cost is well over an order
// of magnitude higher, so its delay-bounded backlog is smaller.
func TestAdaptiveWatermarkIsMeasurementDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("drives thousands of ops per backend")
	}
	// A 10ms target puts both backends' Little's-law targets well
	// inside (1, QueueDepth) — ref's measured per-op cost is several
	// times stdlib's, so the targets (and the settled watermarks)
	// must separate.
	run := func(backend string) (wm int, perOp float64) {
		opts := testEngineOptions()
		opts.Cipher = backend
		p, err := New(Config{
			Shards:            1,
			QueueDepth:        4096,
			BatchMax:          8,
			AdaptiveWatermark: true,
			AdaptEvery:        2,
			TargetDelayNs:     10_000_000,
			Engine:            opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var req Request
		req.Kind = OpWrite
		req.Mode = epoch.CounterMode
		for i := 0; i < 4000; i++ {
			req.Addr = uint64(i%512) * 64
			req.Data[0] = byte(i)
			if resp := p.SubmitWait(req); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
		p.FlushBarrier()
		return p.Watermark(), p.Profiler().Service.EWMA()
	}

	wmRef, perOpRef := run(aes.BackendRef)
	wmStd, perOpStd := run(aes.BackendStdlib)
	t.Logf("ref: watermark %d (%.0f ns/op); stdlib: watermark %d (%.0f ns/op)",
		wmRef, perOpRef, wmStd, perOpStd)
	if perOpRef <= perOpStd {
		t.Skipf("ref backend measured faster than stdlib (%.0f vs %.0f ns/op) — cannot grade divergence", perOpRef, perOpStd)
	}
	if wmRef >= wmStd {
		t.Errorf("watermarks do not reflect measured cost: ref %d >= stdlib %d", wmRef, wmStd)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestAdaptiveSubmitWaitNoAllocs extends the zero-alloc gate to the
// fully instrumented configuration: profiler probes on, flight
// recorder on, adaptive watermark on.
func TestAdaptiveSubmitWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; future reuse cannot be alloc-free")
	}
	p, err := New(Config{
		Shards:            4,
		AdaptiveWatermark: true,
		Profile:           prof.New(""),
		Flight:            flight.NewRing(256),
		Engine:            testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const blocks = 256
	var req Request
	req.Kind = OpWrite
	req.Mode = epoch.CounterMode
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
		if resp := p.SubmitWait(req); resp.Err != nil {
			t.Fatal(resp.Err)
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
// sampled submits, degradations (with queue-vs-watermark context),
// and fault injections all land in the ring.
func TestFlightRecordsPoolEvents(t *testing.T) {
	rec := flight.NewRing(1024)
	// Watermark 0 is "default", so use a 1-deep queue with watermark 1
	// plus an open-loop burst to force degradations deterministically.
	p, err := New(Config{Shards: 1, QueueDepth: 8, Watermark: 1, Flight: rec, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Error("no degradation events recorded despite watermark-1 backlog")
	}
	if kinds[flight.KindFault] == 0 {
		t.Error("no fault event recorded")
	}
}
