package core

import (
	"testing"

	"counterlight/internal/trace"
)

// fastCfg shrinks the hierarchy and windows so tests reach steady
// state (filled LLC, flowing writebacks) in well under a second.
func fastCfg(scheme Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.L1Size = 16 << 10
	cfg.L2Size = 128 << 10
	cfg.L3Size = 1 << 20
	cfg.WarmupTime = 400 * us
	cfg.WindowTime = 600 * us
	return cfg
}

func mustRun(t *testing.T, cfg Config, name string) Result {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidatesConfig(t *testing.T) {
	w, _ := trace.ByName("mcf")
	bad := fastCfg(NoEnc)
	bad.Cores = 0
	if _, err := Run(bad, w); err == nil {
		t.Error("want error for zero cores")
	}
	bad = fastCfg(NoEnc)
	bad.BlockSize = 128
	if _, err := Run(bad, w); err == nil {
		t.Error("want error for non-64 block size")
	}
	bad = fastCfg(Scheme(99))
	if _, err := Run(bad, w); err == nil {
		t.Error("want error for unknown scheme")
	}
	bad = fastCfg(NoEnc)
	bad.Threshold = 0
	if _, err := Run(bad, w); err == nil {
		t.Error("want error for zero threshold")
	}
	bad = fastCfg(NoEnc)
	bad.MemorySize = (1<<32 + 1) * 64
	if _, err := Run(bad, w); err == nil {
		t.Error("want error for a memory of more than 2^32 blocks")
	}
	bad.MemorySize = 64 << 32
	if err := bad.Validate(); err != nil {
		t.Errorf("a memory of exactly 2^32 blocks: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := fastCfg(CounterLight)
	r1 := mustRun(t, cfg, "canneal")
	r2 := mustRun(t, cfg, "canneal")
	if r1.Instructions != r2.Instructions || r1.LLCMisses != r2.LLCMisses ||
		r1.DRAM != r2.DRAM || r1.WBCounterless != r2.WBCounterless {
		t.Errorf("runs differ:\n%+v\n%+v", r1, r2)
	}
}

func TestBasicSanity(t *testing.T) {
	r := mustRun(t, fastCfg(NoEnc), "mcf")
	if r.Instructions == 0 {
		t.Error("no instructions retired")
	}
	if r.LLCMisses == 0 {
		t.Error("no LLC misses for an out-of-cache workload")
	}
	if r.AvgMissLatNS < 20 || r.AvgMissLatNS > 2000 {
		t.Errorf("miss latency %.1f ns implausible", r.AvgMissLatNS)
	}
	if r.BusUtilization <= 0 || r.BusUtilization > 1 {
		t.Errorf("utilization %v out of range", r.BusUtilization)
	}
	if r.EnergyPJ <= 0 || r.EnergyPerInst <= 0 {
		t.Error("energy not accounted")
	}
}

// §III's central claim: counterless encryption slows down irregular
// workloads by adding the AES latency to every LLC read miss.
func TestCounterlessSlowdown(t *testing.T) {
	base := mustRun(t, fastCfg(NoEnc), "mcf")
	cls := mustRun(t, fastCfg(Counterless), "mcf")
	perf := cls.PerfNormalizedTo(base)
	if perf >= 0.99 {
		t.Errorf("counterless perf = %.3f, want visible slowdown", perf)
	}
	if perf < 0.80 {
		t.Errorf("counterless perf = %.3f, implausibly slow", perf)
	}
	// The added miss latency is the AES latency minus second-order
	// queueing relief (the slower scheme offers less load); the exact
	// ~9 ns delta is asserted by TestMicrobenchmarkAESDelta under
	// controlled single-core conditions.
	delta := cls.AvgMissLatNS - base.AvgMissLatNS
	if delta < 2 || delta > 15 {
		t.Errorf("counterless miss-latency delta = %.1f ns, want positive ~AES", delta)
	}
}

// AES-256 must hurt counterless more than AES-128 (Fig. 5).
func TestAES256HurtsMore(t *testing.T) {
	base := mustRun(t, fastCfg(NoEnc), "mcf")
	cls128 := mustRun(t, fastCfg(Counterless), "mcf")
	cls256 := mustRun(t, fastCfg(Counterless).WithAES256(), "mcf")
	p128 := cls128.PerfNormalizedTo(base)
	p256 := cls256.PerfNormalizedTo(base)
	if p256 >= p128 {
		t.Errorf("AES-256 perf %.3f not worse than AES-128 %.3f", p256, p128)
	}
}

// The headline result (Fig. 16): Counter-light beats counterless and
// approaches no-encryption for irregular workloads.
func TestCounterLightBeatsCounterless(t *testing.T) {
	for _, name := range []string{"mcf", "canneal"} {
		base := mustRun(t, fastCfg(NoEnc), name)
		cls := mustRun(t, fastCfg(Counterless), name)
		cl := mustRun(t, fastCfg(CounterLight), name)
		pCls := cls.PerfNormalizedTo(base)
		pCl := cl.PerfNormalizedTo(base)
		if pCl <= pCls {
			t.Errorf("%s: counter-light %.3f not better than counterless %.3f", name, pCl, pCls)
		}
		if pCl < 0.90 {
			t.Errorf("%s: counter-light perf %.3f, want >= 0.90", name, pCl)
		}
	}
}

// Counter-light adds no counter traffic on reads: its DRAM read count
// stays near the no-encryption baseline, while full counter mode reads
// substantially more (Fig. 1's comparison).
func TestCounterLightNoReadOverhead(t *testing.T) {
	base := mustRun(t, fastCfg(NoEnc), "streamcluster")
	cl := mustRun(t, fastCfg(CounterLight), "streamcluster")
	cm := mustRun(t, fastCfg(CounterMode), "streamcluster")
	clReads := float64(cl.DRAM.Reads) / float64(base.DRAM.Reads)
	cmReads := float64(cm.DRAM.Reads) / float64(base.DRAM.Reads)
	if clReads > 1.1 {
		t.Errorf("counter-light read traffic ratio = %.2f, want ~1", clReads)
	}
	if cmReads < clReads+0.05 {
		t.Errorf("counter mode read ratio %.2f not above counter-light %.2f", cmReads, clReads)
	}
}

// The Fig. 8 experiment: under counter mode, the counter sometimes
// arrives after the data.
func TestCounterArrivalDistribution(t *testing.T) {
	r := mustRun(t, fastCfg(CounterMode), "canneal")
	if r.CounterLateHist.Total() == 0 {
		t.Fatal("no counter-arrival samples collected")
	}
	if r.CounterLateHist.Total() != r.LLCMisses {
		t.Errorf("histogram samples %d != LLC misses %d", r.CounterLateHist.Total(), r.LLCMisses)
	}
	if r.CounterLateFrac <= 0 {
		t.Error("no misses with late counters — counter-cache misses should produce some")
	}
	if r.CounterLateFrac > 0.8 {
		t.Errorf("late-counter fraction %.2f implausibly high", r.CounterLateFrac)
	}
	// No-counter schemes must not collect samples.
	r2 := mustRun(t, fastCfg(CounterLight), "canneal")
	if r2.CounterLateHist.Total() != 0 {
		t.Error("counter-light collected counter-arrival samples")
	}
}

// The memoization table must serve >=90% of counter-mode decryptions
// (§IV-D).
func TestMemoHitRate(t *testing.T) {
	for _, sc := range []Scheme{CounterMode, CounterLight} {
		r := mustRun(t, fastCfg(sc), "canneal")
		if r.MemoHitRate < 0.90 {
			t.Errorf("%v memo hit rate = %.3f, want >= 0.90", sc, r.MemoHitRate)
		}
	}
}

// Disabling memoization must slow counter-mode schemes down.
func TestMemoizationAblation(t *testing.T) {
	on := mustRun(t, fastCfg(CounterLight), "mcf")
	cfg := fastCfg(CounterLight)
	cfg.MemoizeEnabled = false
	off, err := Run(cfg, mustWorkload(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if off.Instructions >= on.Instructions {
		t.Errorf("memoization off (%d instr) not slower than on (%d)", off.Instructions, on.Instructions)
	}
}

func mustWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return w
}

// Under bandwidth starvation, Counter-light's epoch monitor must push
// writebacks to counterless mode (Figs. 20/21); with ample bandwidth
// and few writes it must not.
func TestEpochSwitchUnderStress(t *testing.T) {
	stress := fastCfg(CounterLight)
	stress.BandwidthGBs = 6.4
	r := mustRun(t, stress, "omnetpp")
	if r.CounterlessWBFraction() < 0.5 {
		t.Errorf("6.4 GB/s omnetpp: counterless WB share = %.2f, want high", r.CounterlessWBFraction())
	}
	calm := fastCfg(CounterLight)
	r2 := mustRun(t, calm, "mcf")
	if r2.CounterlessWBFraction() > 0.2 {
		t.Errorf("25.6 GB/s mcf: counterless WB share = %.2f, want ~0", r2.CounterlessWBFraction())
	}
}

// Fig. 21's trend: lower thresholds switch more writebacks to
// counterless under the same starved channel.
func TestThresholdSweepTrend(t *testing.T) {
	frac := func(th float64) float64 {
		cfg := fastCfg(CounterLight)
		cfg.BandwidthGBs = 6.4
		cfg.Threshold = th
		return mustRun(t, cfg, "canneal").CounterlessWBFraction()
	}
	f10, f60, f80 := frac(0.10), frac(0.60), frac(0.80)
	if f10 < f60-0.01 || f60 < f80-0.01 {
		t.Errorf("threshold sweep not monotone: 10%%=%.2f 60%%=%.2f 80%%=%.2f", f10, f60, f80)
	}
	if f10 < 0.95 {
		t.Errorf("10%% threshold counterless share = %.2f, want ~1", f10)
	}
}

// The no-dynamic-switching ablation (§VI): a write-heavy workload
// collapses without the switch; the switch restores counterless-level
// performance.
func TestDynamicSwitchAblation(t *testing.T) {
	stress := fastCfg(CounterLight)
	stress.BandwidthGBs = 6.4
	withSwitch := mustRun(t, stress, "omnetpp")
	stress.DynamicSwitch = false
	noSwitch, err := Run(stress, mustWorkload(t, "omnetpp"))
	if err != nil {
		t.Fatal(err)
	}
	if float64(noSwitch.Instructions) > 0.95*float64(withSwitch.Instructions) {
		t.Errorf("disabling the switch did not hurt omnetpp: %d vs %d",
			noSwitch.Instructions, withSwitch.Instructions)
	}
}

// Under stress, Counter-light must stay close to counterless (Fig. 20:
// worst case within a couple percent).
func TestStressParityWithCounterless(t *testing.T) {
	for _, name := range []string{"omnetpp", "canneal"} {
		cfg := fastCfg(Counterless)
		cfg.BandwidthGBs = 6.4
		cls := mustRun(t, cfg, name)
		cfg.Scheme = CounterLight
		cl := mustRun(t, cfg, name)
		ratio := cl.PerfNormalizedTo(cls)
		if ratio < 0.95 {
			t.Errorf("%s at 6.4 GB/s: counter-light/counterless = %.3f, want >= 0.95", name, ratio)
		}
	}
}

// The §III microbenchmark: per-miss latency delta between counterless
// and no encryption equals the AES latency (the real-system 10 ns
// measurement).
func TestMicrobenchmarkAESDelta(t *testing.T) {
	cfg := fastCfg(NoEnc)
	cfg.Cores = 1
	cfg.PrefetchEnabled = false // the paper turns prefetching off
	base, err := Run(cfg, trace.MicroPointerChase())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = Counterless
	cls, err := Run(cfg, trace.MicroPointerChase())
	if err != nil {
		t.Fatal(err)
	}
	delta := cls.AvgMissLatNS - base.AvgMissLatNS
	// 10 ns AES minus the 1 ns ECC check the unencrypted system pays.
	if delta < 8 || delta > 10.5 {
		t.Errorf("microbenchmark per-miss delta = %.2f ns, want ~9", delta)
	}
}

func TestRunPair(t *testing.T) {
	w, _ := trace.ByName("mcf")
	scheme, base, err := RunPair(fastCfg(Counterless), w)
	if err != nil {
		t.Fatal(err)
	}
	if base.Scheme != NoEnc || scheme.Scheme != Counterless {
		t.Error("RunPair schemes wrong")
	}
	if scheme.PerfNormalizedTo(base) <= 0 {
		t.Error("normalized perf not positive")
	}
}

func TestResultString(t *testing.T) {
	r := mustRun(t, fastCfg(NoEnc), "mcf")
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		NoEnc: "noenc", Counterless: "counterless", CounterMode: "countermode",
		CounterModeSingle: "countermode-single", CounterLight: "counterlight",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(s), s.String(), want)
		}
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme has empty name")
	}
}

func BenchmarkSimulatorMcf(b *testing.B) {
	w, _ := trace.ByName("mcf")
	cfg := fastCfg(CounterLight)
	cfg.WarmupTime = 100 * us
	cfg.WindowTime = 200 * us
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// Refresh adds a small latency tail but must not change the results
// qualitatively.
func TestRefreshModeling(t *testing.T) {
	cfg := fastCfg(NoEnc)
	off := mustRun(t, cfg, "mcf")
	cfg.RefreshEnabled = true
	on := mustRun(t, cfg, "mcf")
	if on.DRAM.Refreshes == 0 {
		t.Error("refresh enabled but no refresh waits recorded")
	}
	if on.AvgMissLatNS <= off.AvgMissLatNS {
		t.Errorf("refresh did not add latency: %.1f vs %.1f", on.AvgMissLatNS, off.AvgMissLatNS)
	}
	if on.AvgMissLatNS > off.AvgMissLatNS*1.25 {
		t.Errorf("refresh added implausible latency: %.1f vs %.1f", on.AvgMissLatNS, off.AvgMissLatNS)
	}
}
