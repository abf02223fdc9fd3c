package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"counterlight/internal/cache"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/dram"
	"counterlight/internal/epoch"
	"counterlight/internal/memoize"
	"counterlight/internal/obs"
	"counterlight/internal/obs/timeseries"
	"counterlight/internal/trace"
)

// TestMetricsMatchLegacyStats is the observability layer's ground
// truth: on one run, the registry's snapshot must agree exactly with
// the legacy Stats()-style accessors and Result fields fed by the
// same instruments.
func TestMetricsMatchLegacyStats(t *testing.T) {
	o := obs.NewObserver(1 << 12)
	cfg := fastCfg(CounterMode)
	cfg.WarmupTime = 0 // window == whole run, so history and counters align
	cfg.Obs = o
	w, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload missing")
	}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	lbl := obs.L("scheme", "countermode")

	if got := snap.Value("sim_instructions_total", lbl); got != float64(res.Instructions) {
		t.Errorf("sim_instructions_total = %v, Result.Instructions = %d", got, res.Instructions)
	}
	if got := snap.Value("sim_llc_misses_total", lbl); got != float64(res.LLCMisses) {
		t.Errorf("sim_llc_misses_total = %v, Result.LLCMisses = %d", got, res.LLCMisses)
	}
	if got := snap.Value("dram_reads_total", lbl); got != float64(res.DRAM.Reads) {
		t.Errorf("dram_reads_total = %v, Result.DRAM.Reads = %d", got, res.DRAM.Reads)
	}
	if got := snap.Value("dram_writes_total", lbl); got != float64(res.DRAM.Writes) {
		t.Errorf("dram_writes_total = %v, Result.DRAM.Writes = %d", got, res.DRAM.Writes)
	}

	// Memo hits/misses: every table lookup happens on the simulator's
	// read path, so the table's counters and the window counters are
	// two views of the same stream.
	hits := snap.Value("memo_hits_total", lbl)
	misses := snap.Value("memo_misses_total", lbl)
	if hits != snap.Value("sim_memo_read_hits_total", lbl) {
		t.Errorf("memo_hits_total = %v != sim_memo_read_hits_total = %v",
			hits, snap.Value("sim_memo_read_hits_total", lbl))
	}
	if hits+misses == 0 {
		t.Fatal("no memo lookups recorded; workload too small for the parity check")
	}
	if rate := hits / (hits + misses); rate != res.MemoHitRate {
		t.Errorf("registry memo hit rate = %v, Result.MemoHitRate = %v", rate, res.MemoHitRate)
	}

	// Epoch mode switches: with no warmup, the monitor's window
	// counter must equal the timeline's mid-epoch switch count.
	var histSwitches float64
	for _, rec := range res.EpochHistory {
		if rec.SwitchedMid {
			histSwitches++
		}
	}
	if got := snap.Value("epoch_mid_switches_total", lbl); got != histSwitches {
		t.Errorf("epoch_mid_switches_total = %v, EpochHistory switches = %v", got, histSwitches)
	}

	// Counter-arrival bins: the four registry counters and the Result
	// histogram are views of the same counts.
	resBins := res.CounterLateHist.Bins()
	if len(resBins) != len(counterLateBins) {
		t.Fatalf("Result histogram has %d bins, want %d", len(resBins), len(counterLateBins))
	}
	for i, bin := range counterLateBins {
		se, ok := snap.Get("sim_counter_late_total", lbl, obs.L("bin", bin))
		if !ok {
			t.Fatalf("sim_counter_late_total{bin=%q} missing from snapshot", bin)
		}
		if se.Value != float64(resBins[i]) {
			t.Errorf("bin %s = %v, Result bin = %d", bin, se.Value, resBins[i])
		}
	}
	if res.CounterLateHist.Total() == 0 {
		t.Error("no counter arrivals recorded; workload too small for the parity check")
	}

	// The exposition paths must accept a real run's registry.
	var prom, js bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatalf("prometheus exposition: %v", err)
	}
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatalf("json exposition: %v", err)
	}
	if _, err := obs.ReadSnapshot(bytes.NewReader(js.Bytes())); err != nil {
		t.Fatalf("json round trip: %v", err)
	}
}

// TestLiveMetricsDuringRun snapshots the registry in a loop while a
// short Run is in progress, as a live /metrics scrape does. The
// simulator counts in plain fields and publishes them at sync points,
// so under -race (make race) this checks that a reader only ever meets
// the published copies. With no warmup the count never resets: each
// live reading must be at most the next and at most the exact value
// the registry holds when Run returns.
func TestLiveMetricsDuringRun(t *testing.T) {
	o := obs.NewObserver(0)
	cfg := reentrancyCfg(CounterLight, 1)
	cfg.WarmupTime = 0
	cfg.Obs = o
	w, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload missing")
	}
	lbl := obs.L("scheme", cfg.Scheme.String())
	stop, stopped := make(chan struct{}), make(chan struct{})
	var readings []float64
	go func() {
		defer close(stopped)
		for {
			readings = append(readings, o.Metrics.Snapshot().Value("sim_instructions_total", lbl))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	res, err := Run(cfg, w)
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	final := float64(res.Instructions)
	if got := o.Metrics.Snapshot().Value("sim_instructions_total", lbl); got != final {
		t.Errorf("sim_instructions_total = %v after Run, Result.Instructions = %v", got, final)
	}
	prev := 0.0
	for i, v := range readings {
		if v < prev || v > final {
			t.Fatalf("live reading %d = %v after %v (final %v)", i, v, prev, final)
		}
		prev = v
	}
	t.Logf("%d live readings, last %v of %v", len(readings), prev, final)
}

// TestTraceProducesPerfettoLoadableJSON runs with tracing on and
// checks the export is valid trace_event JSON with pipeline events.
func TestTraceProducesPerfettoLoadableJSON(t *testing.T) {
	o := obs.NewObserver(1 << 14)
	cfg := fastCfg(CounterLight)
	cfg.Obs = o
	w, _ := trace.ByName("mcf")
	if _, err := Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	if o.Trace.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	var buf bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	names := make(map[string]int)
	for _, e := range doc.TraceEvents {
		names[e.Name]++
	}
	for _, want := range []string{"memo_hit", "event_queue_depth", "bus_backlog_ps"} {
		if names[want] == 0 {
			t.Errorf("no %q events in trace (have %v)", want, names)
		}
	}
}

// TestObservabilityDoesNotPerturbResults: a run with full
// observability enabled must produce bit-identical measurements to a
// bare run.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	cfg := fastCfg(CounterLight)
	w, _ := trace.ByName("omnetpp")
	bare, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewObserver(1 << 12)
	observed, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Instructions != observed.Instructions || bare.LLCMisses != observed.LLCMisses ||
		bare.DRAM != observed.DRAM || bare.AvgMissLatNS != observed.AvgMissLatNS {
		t.Errorf("observability changed the run:\nbare:     %v\nobserved: %v", bare, observed)
	}
	if len(bare.EpochHistory) != len(observed.EpochHistory) {
		t.Errorf("epoch history diverged: %d vs %d records",
			len(bare.EpochHistory), len(observed.EpochHistory))
	}
}

// TestEpochPublisherDoesNotPerturbResults extends the observability
// invariant to the live-telemetry seam: attaching an epoch publisher
// (the timeseries recorder) must leave the Result bit-identical, while
// the recorder sees one well-formed sample per closed epoch.
func TestEpochPublisherDoesNotPerturbResults(t *testing.T) {
	cfg := fastCfg(CounterLight)
	cfg.BandwidthGBs = 6.4 // starve the channel so modes actually switch
	w, _ := trace.ByName("mcf")
	bare, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}

	rec := timeseries.NewRecorder(0)
	cfg.Epochs = rec
	cfg.Obs = obs.NewObserver(0)
	observed, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Instructions != observed.Instructions || bare.LLCMisses != observed.LLCMisses ||
		bare.DRAM != observed.DRAM || bare.AvgMissLatNS != observed.AvgMissLatNS ||
		bare.WBCounterless != observed.WBCounterless || bare.WBTotal != observed.WBTotal {
		t.Errorf("epoch publisher changed the run:\nbare:     %v\nobserved: %v", bare, observed)
	}

	ss := rec.Samples()
	if len(ss) == 0 {
		t.Fatal("recorder saw no epoch samples")
	}
	if len(ss) != len(observed.EpochHistory) {
		t.Errorf("recorder has %d samples, EpochHistory %d records", len(ss), len(observed.EpochHistory))
	}
	for i, s := range ss {
		if s.Epoch != uint64(i+1) {
			t.Fatalf("sample %d has epoch index %d", i, s.Epoch)
		}
		if h := observed.EpochHistory[i]; s.Utilization != h.Utilization ||
			s.Mode != h.StartMode.String() || s.SwitchedMid != h.SwitchedMid {
			t.Fatalf("sample %d disagrees with EpochHistory: %+v vs %+v", i, s, h)
		}
		if i > 0 && (s.TS <= ss[i-1].TS || s.MetaReads < ss[i-1].MetaReads ||
			s.ModeSwitches < ss[i-1].ModeSwitches) {
			t.Fatalf("sample %d not monotonic after %d", i, i-1)
		}
	}
	last := ss[len(ss)-1]
	if last.ModeSwitches == 0 {
		t.Error("no mode switches observed on the starved channel")
	}

	// The overhead-traffic counters are registered on the registry too.
	snap := cfg.Obs.Metrics.Snapshot()
	if got := snap.Value("sim_meta_reads_total", obs.L("scheme", "counterlight")); got != float64(last.MetaReads) {
		t.Errorf("sim_meta_reads_total = %v, last sample MetaReads = %d", got, last.MetaReads)
	}
}

// TestEpochSampleMetaTraffic: a counter-fetching scheme's samples must
// carry its counter-block/tree overhead traffic.
func TestEpochSampleMetaTraffic(t *testing.T) {
	cfg := fastCfg(CounterMode)
	rec := timeseries.NewRecorder(0)
	cfg.Epochs = rec
	w, _ := trace.ByName("mcf")
	if _, err := Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	last, ok := rec.Last()
	if !ok {
		t.Fatal("no samples recorded")
	}
	if last.MetaReads == 0 {
		t.Error("countermode run recorded no counter/tree overhead reads")
	}
	if last.MemoHitRate == 0 {
		t.Error("countermode run recorded no RMCC hit rate")
	}
}

// TestStartWindowResetsCounterHist is the regression test for the
// warmup-pollution bug: startWindow reset dram/memo/missLat but left
// the counter-arrival bins holding warmup samples, skewing the Fig. 8
// histogram.
func TestStartWindowResetsCounterHist(t *testing.T) {
	cfg := fastCfg(CounterMode)
	s := &simulator{cfg: cfg}
	s.o = obs.NewObserver(0)
	s.mirror = obs.NewMirror(s.o.Metrics)

	var err error
	if s.dram, err = dram.New(dram.DefaultConfig(cfg.BandwidthGBs)); err != nil {
		t.Fatal(err)
	}
	if s.mon, err = epoch.NewMonitor(cfg.EpochLen, s.dram.BurstTime(), cfg.Threshold); err != nil {
		t.Fatal(err)
	}
	s.memo = memoize.New(16, 0, func(c uint64) mix.Word { return mix.Word{Hi: c} })
	if s.l3, err = cache.New(4096, 64, 4); err != nil {
		t.Fatal(err)
	}
	if s.ctrC, err = cache.New(4096, 64, 4); err != nil {
		t.Fatal(err)
	}

	// Warmup-phase samples.
	for i := range s.ctrLate {
		s.ctrLate[i]++
	}
	s.instr += 5
	s.mon.Record(0, 1)

	s.startWindow()

	for i, bin := range counterLateBins {
		if got := s.ctrLate[i]; got != 0 {
			t.Errorf("counter-arrival bin %s kept %d warmup samples across startWindow", bin, got)
		}
	}
	if got := s.instr; got != 0 {
		t.Errorf("instruction counter kept %d across startWindow", got)
	}
	if !s.measuring {
		t.Error("startWindow did not enter measurement mode")
	}
}
