package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the sim_canneal golden file from a fresh run")

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 1, 10},
		{ten, 0.01, 1},
		{hundred, 0.5, 50},
		{hundred, 0.9, 90},
		{hundred, 0.901, 91},
		{[]float64{42}, 0.5, 42},
		{[]float64{42}, 0.9, 42},
		{[]float64{3, 1}, 0.5, 1},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if ten[0] != 10 || ten[9] != 5 {
		t.Errorf("percentile reordered its input: %v", ten)
	}
}

func TestSplitByKind(t *testing.T) {
	lat := []int64{1000, 200_000, 3000, 400_000, 5000}
	kinds := []mcpool.OpKind{mcpool.OpRead, mcpool.OpWrite, mcpool.OpRead, mcpool.OpWrite, mcpool.OpRead}
	got := splitByKind(lat, kinds)
	want := map[mcpool.OpKind][]float64{
		mcpool.OpRead:  {1, 3, 5},
		mcpool.OpWrite: {200, 400},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitByKind = %v, want %v", got, want)
	}
	// A mixed p50 sits on the read/write cliff; split, each is stable.
	if p := percentile(got[mcpool.OpWrite], 0.5); p != 200 {
		t.Errorf("write p50 = %v, want 200", p)
	}
}

// fakePool completes every request immediately and records how the
// window drives it.
type fakePool struct {
	submitted, waited int
	maxOutstanding    int
	waitOrder         []int
	waits             map[int]int
}

type fakeFuture struct {
	p *fakePool
	i int
}

func (f fakeFuture) Wait() mcpool.Response {
	f.p.waited++
	f.p.waits[f.i]++
	f.p.waitOrder = append(f.p.waitOrder, f.i)
	return mcpool.Response{Plain: [64]byte{byte(f.i)}}
}

func (p *fakePool) submit(mcpool.Request) (waiter, error) {
	i := p.submitted
	p.submitted++
	if out := p.submitted - p.waited; out > p.maxOutstanding {
		p.maxOutstanding = out
	}
	return fakeFuture{p, i}, nil
}

func TestRunWindow(t *testing.T) {
	const n = 1000
	st := generate(serviceSpec{blocks: 64, ops: n, readFrac: 0.5}, 1)
	p := &fakePool{waits: map[int]int{}}
	fences := 0
	lat := make([]int64, n)
	for i := range lat {
		lat[i] = -1
	}
	done := make([]int, n)
	_, err := runWindow(p.submit, &st, st.ops, fence{every: 100, call: func() { fences++ }}, nil, lat,
		func(i int, resp mcpool.Response) {
			done[i]++
			if resp.Plain[0] != byte(i) {
				t.Errorf("op %d got the response of op %d", i, resp.Plain[0])
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.maxOutstanding != window {
		t.Errorf("max outstanding = %d, want exactly %d", p.maxOutstanding, window)
	}
	if p.submitted != n || p.waited != n {
		t.Errorf("submitted %d, waited %d, want %d each", p.submitted, p.waited, n)
	}
	for i := 0; i < n; i++ {
		if p.waits[i] != 1 || done[i] != 1 {
			t.Fatalf("op %d waited %d times, completed %d times, want once each", i, p.waits[i], done[i])
		}
		if lat[i] < 0 {
			t.Fatalf("op %d was never timed", i)
		}
		if p.waitOrder[i] != i {
			t.Fatalf("wait %d was for op %d: not oldest-first", i, p.waitOrder[i])
		}
	}
	if fences != n/100 {
		t.Errorf("fence ran %d times, want %d", fences, n/100)
	}
}

func TestGenerate(t *testing.T) {
	spec := writeDurable.spec
	spec.ops = 100_000
	st := generate(spec, 5)
	if !reflect.DeepEqual(st, generate(spec, 5)) {
		t.Fatal("the same seed gave different streams")
	}
	if reflect.DeepEqual(st.ops[:100], generate(spec, 6).ops[:100]) {
		t.Fatal("different seeds gave the same stream")
	}
	written := make([]bool, spec.blocks)
	last := make([]uint32, spec.blocks)
	writes, counterless, reads := 0, 0, 0
	for _, ops := range [][]op{st.fill, st.ops} {
		for _, o := range ops {
			switch o.kind {
			case mcpool.OpRead:
				reads++
				if !written[o.block] {
					t.Fatalf("read of block %d before any write to it", o.block)
				}
				if o.data != last[o.block] {
					t.Fatalf("read of block %d expects payload %d, last written %d", o.block, o.data, last[o.block])
				}
			case mcpool.OpWrite:
				writes++
				written[o.block] = true
				last[o.block] = o.data
				if o.mode == epoch.Counterless {
					counterless++
				}
				if req := st.request(o); req.Auto || req.Mode != o.mode {
					t.Fatalf("write request %+v does not carry its explicit mode", req)
				}
			}
		}
	}
	if frac := float64(counterless) / float64(writes); frac < 0.015 || frac > 0.025 {
		t.Errorf("counterless share %.4f of %d writes, want about 0.02", frac, writes)
	}
	if frac := float64(reads) / float64(spec.ops); frac < 0.49 || frac > 0.51 {
		t.Errorf("read share %.4f, want about 0.5", frac)
	}
	if !reflect.DeepEqual(last, st.final) {
		t.Error("final does not index each block's last write")
	}

	wide := generate(serviceSpec{blocks: 4096, ops: 10_000, readFrac: 1}, 5)
	for _, o := range wide.fill {
		if o.mode != epoch.CounterMode {
			t.Fatal("read_wide's working set must be written in counter mode")
		}
	}
	for _, o := range wide.ops {
		if o.kind != mcpool.OpRead {
			t.Fatal("read_wide's measured ops must all be reads")
		}
	}
}

// tinyDurable is write_durable at a size a unit test can afford.
var tinyDurable = serviceWorkload{
	spec:         serviceSpec{blocks: 256, ops: 1024, readFrac: 0.5, counterless: 0.02},
	durable:      true,
	barrierEvery: 128,
	passes:       1,
}

func TestServiceRepChecksOutputs(t *testing.T) {
	st := generate(tinyDurable.spec, 3)
	var r serviceRep
	if err := runServiceRep(tinyDurable, &st, &r, nil, true); err != nil {
		t.Fatal(err)
	}
	want := len(st.fill) + len(st.ops) + len(st.final) // + recovery read-back
	if r.attempted != want || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d attempted, 0 failed", r.attempted, r.failed, want)
	}
	if len(r.barriers) != len(st.ops)/tinyDurable.barrierEvery {
		t.Errorf("%d barriers, want %d", len(r.barriers), len(st.ops)/tinyDurable.barrierEvery)
	}

	// A read that returns other bytes than the stream last wrote must
	// count as failed: point every read's expectation at another payload.
	reads := 0
	for i, o := range st.ops {
		if o.kind == mcpool.OpRead {
			st.ops[i].data = (o.data + 1) % uint32(len(st.data))
			reads++
		}
	}
	if err := runServiceRep(tinyDurable, &st, &r, nil, false); err != nil {
		t.Fatal(err)
	}
	if r.failed != reads {
		t.Fatalf("%d failed, want the %d reads with wrong expectations", r.failed, reads)
	}
}

func TestLiveHeapAfterGCWithPoolOpen(t *testing.T) {
	base := liveHeapMB()
	garbage := make([]byte, 64<<20)
	garbage[len(garbage)-1] = 1
	garbage = nil
	if got := liveHeapMB() - base; got > 32 {
		t.Fatalf("live heap counts %.1f MiB of dropped garbage: no GC before the reading", got)
	}
	st := generate(tinyDurable.spec, 4)
	var r serviceRep
	if err := runServiceRep(tinyDurable, &st, &r, nil, false); err != nil {
		t.Fatal(err)
	}
	after := liveHeapMB() - base // the node is closed and unreachable now
	if r.heapMB < 1 || r.heapMB < after+1 {
		t.Fatalf("heap read during the repetition %.2f MiB, after it %.2f MiB: the open node was not counted", r.heapMB, after)
	}
}

func TestCheckStageIdentity(t *testing.T) {
	row := func(stage string, count uint64, mean int64) obs.StageSummary {
		return obs.StageSummary{Stage: stage, Count: count, MeanNs: mean}
	}
	good := []obs.StageSummary{row("queue", 10, 100), row("batch", 10, 20), row("service", 10, 300), row("writeback", 10, 5), row("total", 10, 426)}
	if err := checkStageIdentity(good, 10); err != nil {
		t.Errorf("identity within rounding rejected: %v", err)
	}
	lost := append([]obs.StageSummary(nil), good...)
	lost[4] = row("total", 10, 900)
	if checkStageIdentity(lost, 10) == nil {
		t.Error("stage means that miss the total passed")
	}
	if checkStageIdentity(good, 11) == nil {
		t.Error("a request missing from attribution passed")
	}
	short := append([]obs.StageSummary(nil), good...)
	short[1] = row("batch", 9, 20)
	if checkStageIdentity(short, 10) == nil {
		t.Error("a stage that saw fewer requests passed")
	}
}

func TestTracedServiceRun(t *testing.T) {
	o := options{workload: "write_durable", seed: 2, outDir: t.TempDir(), log: testLog{t}}
	res, err := traceService(o, tinyDurable)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed %d of %d checks", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Fatalf("%d metrics, want every one of the %d per-layer metrics", len(res.Metrics), len(layerMetrics))
	}
	for _, name := range []string{"mcpool.service_us", "mcpool.flush_barrier_us", "engine.read_ns", "engine.write_counter_ns",
		"cipher.pad_ns", "ctrblock.verify_ns", "keccak.mac64_528b_ns", "engine.counter_writes"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, f := range []string{"spans.csv.gz", "layers.txt", "layers.json"} {
		if _, err := os.Stat(o.outDir + "/write_durable/" + f); err != nil {
			t.Error(err)
		}
	}
	again, err := traceService(o, tinyDurable)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.counter_writes", "engine.counterless_writes", "engine.memo_hit_frac"} {
		if res.Metrics[name] != again.Metrics[name] {
			t.Errorf("count %s changed between runs: %v then %v", name, res.Metrics[name], again.Metrics[name])
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(b []byte) (int, error) { l.t.Log(string(b)); return len(b), nil }

func TestSimGoldenAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 16 cell three times")
	}
	a, err := runSimRep(defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := outputsOf(a.res)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := loadGolden(goldenFile, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got != *golden {
		t.Errorf("seed %d outputs %+v, golden %+v", defaultSeed, got, *golden)
	}
	if frac := a.res.CounterlessWBFraction(); frac < 0.5 || frac > 0.9 {
		t.Errorf("counterless writeback share %.3f: the cell no longer runs both modes", frac)
	}
	// Any seed: two runs agree bit for bit, with or without tracing.
	b, err := runSimRep(heldOutSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runSimRep(heldOutSeed, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	if outputsOf(b.res) != outputsOf(c.res) {
		t.Errorf("seed %d: runs disagree: %+v vs %+v", heldOutSeed, outputsOf(b.res), outputsOf(c.res))
	}
	if outputsOf(b.res) == got {
		t.Error("a different seed gave identical outputs: the seed does not reach the simulator")
	}
	if b.clock.heapMB <= 0 || len(b.clock.hostNs) != 80 {
		t.Errorf("heap %.2f MiB over %d epochs, want > 0 over 80", b.clock.heapMB, len(b.clock.hostNs))
	}
}
