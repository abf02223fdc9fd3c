package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/obs"
	"counterlight/internal/trace"
)

// simOutputs are the core.Result fields sim_canneal checks: a change
// to the simulator's speed must leave every one of them identical.
type simOutputs struct {
	Instructions  uint64  `json:"instructions"`
	LLCMisses     uint64  `json:"llc_misses"`
	WBCounterless uint64  `json:"wb_counterless"`
	WBTotal       uint64  `json:"wb_total"`
	BusUtil       float64 `json:"bus_util"`
	MemoHitRate   float64 `json:"memo_hit_rate"`
}

func outputsOf(r core.Result) simOutputs {
	return simOutputs{
		Instructions:  r.Instructions,
		LLCMisses:     r.LLCMisses,
		WBCounterless: r.WBCounterless,
		WBTotal:       r.WBTotal,
		BusUtil:       r.BusUtilization,
		MemoHitRate:   r.MemoHitRate,
	}
}

// goldenFile holds the default seed's outputs, relative to this
// package's directory.
const goldenFile = "testdata/sim_canneal_seed1.json"

// simConfig is the Fig. 16 cell: canneal under Counter-light with
// AES-128 and Table I's defaults (4 ms warmup, 4 ms window, 100 µs
// epochs, 60% threshold).
func simConfig(seed int64) (core.Config, trace.Workload, error) {
	w, ok := trace.ByName("canneal")
	if !ok {
		return core.Config{}, w, fmt.Errorf("workload canneal not registered")
	}
	cfg := core.DefaultConfig(core.CounterLight)
	cfg.Seed = seed
	return cfg, w, nil
}

// epochClock stamps the host clock at every closed simulated epoch.
// At heapEpoch it also reads the live heap; that reading's time is
// taken out of the stamps, so it lands in no epoch and no throughput.
type epochClock struct {
	start    time.Time
	excluded time.Duration
	last     time.Duration
	hostNs   []int64 // host ns per closed epoch
	modes    []string
	heapBase float64 // live heap before the run
	heapMB   float64 // live heap the run adds, read at heapEpoch
	tr       *spanLog
	span     int32
}

// heapEpoch is the closed epoch at which the run reads its live heap:
// the middle of the measurement window, while the simulator's state
// (caches, DRAM queues, the 128 GiB layout-only counter store) is live.
const heapEpoch = 60

func (c *epochClock) PublishEpoch(s obs.EpochSample) {
	now := c.elapsed()
	c.hostNs = append(c.hostNs, (now - c.last).Nanoseconds())
	c.modes = append(c.modes, s.Mode)
	c.tr.end(c.span)
	if s.Epoch == heapEpoch {
		t := time.Now()
		c.heapMB = liveHeapMB() - c.heapBase
		c.excluded += time.Since(t)
	}
	c.last = c.elapsed()
	c.span = c.tr.begin("sim.epoch", c.tr.root())
}

// elapsed is the host time since start, excluded work taken out.
func (c *epochClock) elapsed() time.Duration { return time.Since(c.start) - c.excluded }

// simRep is one repetition: the one-epoch set-up run and the full run.
type simRep struct {
	setup   time.Duration
	elapsed time.Duration
	clock   *epochClock
	rt      runtimeDelta // Go runtime activity during the full run
	res     core.Result
}

// runSimRep runs one repetition. A non-nil tr records a span per
// simulated epoch.
func runSimRep(seed int64, tr *spanLog) (simRep, error) {
	var r simRep
	cfg, w, err := simConfig(seed)
	if err != nil {
		return r, err
	}
	setupCfg := cfg
	setupCfg.WindowTime = cfg.EpochLen
	endSetup := tr.phase("phase.setup")
	t0 := time.Now()
	if _, err := core.Run(setupCfg, w); err != nil {
		return r, fmt.Errorf("set-up run: %w", err)
	}
	r.setup = time.Since(t0)
	endSetup()

	r.clock = &epochClock{heapBase: liveHeapMB(), tr: tr}
	cfg.Epochs = r.clock
	defer tr.phase("phase.sim")()
	before := readRuntime()
	r.clock.start = time.Now()
	r.clock.span = tr.begin("sim.epoch", tr.root())
	if r.res, err = core.Run(cfg, w); err != nil {
		return r, err
	}
	r.elapsed = r.clock.elapsed()
	tr.end(r.clock.span)
	r.rt = readRuntime().since(before)
	return r, nil
}

// runSim runs repetitions of the Fig. 16 cell until the budget is
// spent (at least minReps), checks that every repetition's outputs are
// identical (and match the golden file on the default seed), and
// reports medians across repetitions.
func runSim(o options) (result, error) {
	if o.traced {
		return traceSim(o)
	}
	res := result{Metrics: metrics{}}
	var setup, opsPerS, heap []float64
	var main, side []float64
	var first *simOutputs
	golden, err := loadGolden(o.golden, o.seed)
	if err != nil {
		return res, err
	}
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < o.budget; rep++ {
		r, err := runSimRep(o.seed, nil)
		if err != nil {
			return res, err
		}
		out := outputsOf(r.res)
		if first == nil {
			first = &out
		}
		res.Attempted += len(r.clock.hostNs)
		if out != *first || (golden != nil && out != *golden) {
			res.Failed += len(r.clock.hostNs)
		}
		setup = append(setup, r.setup.Seconds())
		opsPerS = append(opsPerS, float64(len(r.clock.hostNs))/r.elapsed.Seconds())
		heap = append(heap, r.clock.heapMB)
		for i, ns := range r.clock.hostNs {
			if r.clock.modes[i] == "counterless" {
				main = append(main, float64(ns)/1e3)
			} else {
				side = append(side, float64(ns)/1e3)
			}
		}
		fmt.Fprintf(o.log, "rep %d: setup %.3fs, run %.3fs, %d epochs, %.2f epochs/s, heap %.1f MiB, outputs %+v\n",
			rep, r.setup.Seconds(), r.elapsed.Seconds(), len(r.clock.hostNs), opsPerS[rep], r.clock.heapMB, out)
	}
	fmt.Fprintf(o.log, "epochs: %d counterless, %d counter\n", len(main), len(side))
	m := res.Metrics
	metrics(m).set("setup_s", "s", median(setup))
	metrics(m).set("ops_per_s", "ops/s", median(opsPerS))
	metrics(m).set("live_heap_mb", "MiB", median(heap))
	metrics(m).set("main_p50_us", "us", percentile(main, 0.5))
	metrics(m).set("main_p90_us", "us", percentile(main, 0.9))
	metrics(m).set("side_p50_us", "us", percentile(side, 0.5))
	metrics(m).set("side_p90_us", "us", percentile(side, 0.9))
	res.Correct = res.Failed == 0
	return res, nil
}

// loadGolden returns the outputs stored at path when seed is the
// default seed, and nil for any other seed.
func loadGolden(path string, seed int64) (*simOutputs, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden outputs: %w", err)
	}
	var g simOutputs
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden outputs %s: %w", path, err)
	}
	return &g, nil
}
