// Package figures regenerates every table and figure of the paper's
// evaluation (§III, §VI). Each FigN function runs the experiment on
// the simulator and returns a printable table; cmd/clbench renders
// them and bench_test.go wraps them as benchmarks.
//
// Runs are memoized in a Runner so figures that share configurations
// (e.g. Figs. 5, 16, 17, 18, 19 all use the 25.6 GB/s irregular runs)
// do not repeat simulations.
package figures

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/obs"
	"counterlight/internal/stats"
	"counterlight/internal/trace"
)

// Figure is one regenerated table/figure.
type Figure struct {
	ID      string
	Title   string
	Columns []string // first column is the row label
	Rows    [][]string
	Notes   []string
}

// String renders the figure as an aligned text table.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	widths := make([]int, len(f.Columns))
	for i, c := range f.Columns {
		widths[i] = len(c)
	}
	for _, r := range f.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	line(f.Columns)
	for _, r := range f.Rows {
		line(r)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as RFC-4180-ish CSV (header row first),
// for piping into plotting tools.
func (f Figure) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(v, ",\"\n") {
				v = "\"" + strings.ReplaceAll(v, "\"", "\"\"") + "\""
			}
			b.WriteString(v)
		}
		b.WriteByte('\n')
	}
	writeRow(f.Columns)
	for _, r := range f.Rows {
		writeRow(r)
	}
	return b.String()
}

// runKey identifies a memoized simulation.
type runKey struct {
	workload  string
	scheme    core.Scheme
	bwTenths  int // bandwidth GB/s * 10
	aesLat    int64
	threshold int // percent
	dynSwitch bool
	prefetch  bool
	cores     int
	memoOff   bool
}

// Runner runs and memoizes simulations.
type Runner struct {
	// Quick shrinks the measurement windows ~2x for bench/test use.
	Quick bool
	// Workers bounds how many simulations a sweep runs at once
	// (core.Run is re-entrant). <= 1 keeps the classic serial order.
	// Parallelism never changes a figure: sweeps only prewarm the run
	// cache, and the (serial) assembly phase reads results from it.
	Workers int
	// Log receives progress lines (nil to disable). Parallel sweeps
	// call it from worker goroutines, so it must be safe for
	// concurrent use.
	Log func(string)
	// Observe, when set, is called with each simulation's workload and
	// configuration just before core.Run; it may attach observability
	// (cfg.Obs, cfg.Epochs — neither perturbs the result) and returns
	// a completion callback, or nil. The monitoring server's run pool
	// and clbench's snapshot writer hook in here. Cache hits skip Observe entirely: no simulation runs.
	// Parallel sweeps call it from worker goroutines, so it must be
	// safe for concurrent use.
	Observe func(w trace.Workload, cfg *core.Config) func(core.Result, error)

	mu    sync.Mutex // guards cache
	cache map[runKey]core.Result

	// metrics counts completed simulations and their cumulative wall
	// time (figures_runs_total, figures_run_wall_ns_total).
	metrics *obs.Registry
}

// NewRunner creates a serial Runner; set Workers to sweep in parallel.
func NewRunner(quick bool) *Runner {
	return &Runner{Quick: quick, cache: make(map[runKey]core.Result), metrics: obs.NewRegistry()}
}

// Metrics exposes the runner's sweep counters: figures_runs_total and
// figures_run_wall_ns_total (cumulative simulate wall time, the
// numerator of a sweep's parallel speedup).
func (r *Runner) Metrics() *obs.Registry { return r.metrics }

// variant describes a configuration delta from the Table I defaults.
type variant struct {
	scheme    core.Scheme
	bw        float64
	aes256    bool
	threshold float64
	noSwitch  bool
	noPrefet  bool
	cores     int
	memoOff   bool
}

// cfgFor materializes a variant's configuration and its cache key.
func (r *Runner) cfgFor(w trace.Workload, v variant) (core.Config, runKey) {
	cfg := core.DefaultConfig(v.scheme)
	if v.bw != 0 {
		cfg.BandwidthGBs = v.bw
	}
	if v.aes256 {
		cfg = cfg.WithAES256()
	}
	if v.threshold != 0 {
		cfg.Threshold = v.threshold
	}
	if v.noSwitch {
		cfg.DynamicSwitch = false
	}
	if v.noPrefet {
		cfg.PrefetchEnabled = false
	}
	if v.cores != 0 {
		cfg.Cores = v.cores
	}
	if v.memoOff {
		cfg.MemoizeEnabled = false
	}
	if r.Quick {
		cfg.WarmupTime /= 2
		cfg.WindowTime /= 2
	}
	key := runKey{
		workload:  w.Name,
		scheme:    cfg.Scheme,
		bwTenths:  int(cfg.BandwidthGBs * 10),
		aesLat:    cfg.AESLat,
		threshold: int(cfg.Threshold * 100),
		dynSwitch: cfg.DynamicSwitch,
		prefetch:  cfg.PrefetchEnabled,
		cores:     cfg.Cores,
		memoOff:   !cfg.MemoizeEnabled,
	}
	return cfg, key
}

func (r *Runner) run(w trace.Workload, v variant) (core.Result, error) {
	cfg, key := r.cfgFor(w, v)
	r.mu.Lock()
	res, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	if r.Log != nil {
		r.Log(fmt.Sprintf("run %s/%s bw=%.1f aes=%dns th=%d%% switch=%v",
			w.Name, cfg.Scheme, cfg.BandwidthGBs, cfg.AESLat/1000, key.threshold, cfg.DynamicSwitch))
	}
	var done func(core.Result, error)
	if r.Observe != nil {
		done = r.Observe(w, &cfg)
	}
	start := time.Now()
	res, err := core.Run(cfg, w)
	if done != nil {
		done(res, err)
	}
	if err != nil {
		return core.Result{}, fmt.Errorf("figures: %s/%s: %w", w.Name, cfg.Scheme, err)
	}
	wall := time.Since(start)
	r.metrics.Counter("figures_runs_total").Inc()
	r.metrics.Counter("figures_run_wall_ns_total").Add(uint64(wall.Nanoseconds()))
	if r.Log != nil {
		r.Log(fmt.Sprintf("done %s/%s in %.2fs", w.Name, cfg.Scheme, wall.Seconds()))
	}
	r.mu.Lock()
	r.cache[key] = res
	r.mu.Unlock()
	return res, nil
}

// job is one workload×variant cell of a sweep matrix.
type job struct {
	w trace.Workload
	v variant
}

// cross builds the full sweep matrix: every workload under every
// variant.
func cross(ws []trace.Workload, vs ...variant) []job {
	jobs := make([]job, 0, len(ws)*len(vs))
	for _, w := range ws {
		for _, v := range vs {
			jobs = append(jobs, job{w, v})
		}
	}
	return jobs
}

// prewarm fills the run cache for the jobs through the Do pool.
// Duplicate and already-cached jobs are dropped before any worker
// starts. With Workers <= 1 it is a no-op and the assembly phase
// simulates lazily, exactly like the serial runner always has.
func (r *Runner) prewarm(jobs []job) error {
	if r.Workers <= 1 {
		return nil
	}
	seen := make(map[runKey]bool, len(jobs))
	var todo []job
	r.mu.Lock()
	for _, j := range jobs {
		_, key := r.cfgFor(j.w, j.v)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := r.cache[key]; !ok {
			todo = append(todo, j)
		}
	}
	r.mu.Unlock()

	tasks := make([]func() error, 0, len(todo))
	for _, j := range todo {
		j := j
		tasks = append(tasks, func() error {
			_, err := r.run(j.w, j.v)
			return err
		})
	}
	return r.Do(tasks...)
}

// Do runs the tasks through the Runner's bounded worker pool (at most
// max(1, Workers) at a time) and returns the first error encountered;
// every task runs regardless. The sweep prewarmer and the
// differential-verification harness (internal/check) share this pool,
// so a single -j flag budgets all of a process's concurrent work.
func (r *Runner) Do(tasks ...func() error) error {
	workers := r.Workers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, task := range tasks {
		wg.Add(1)
		go func(task func() error) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := task(); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(task)
	}
	wg.Wait()
	return firstErr
}

func pct(v float64) string { return fmt.Sprintf("%.3f", v) }
func pc1(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ns1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Sec3Micro reproduces §III's real-system microbenchmark: the pointer
// chase with prefetchers off, one access at a time; the per-miss delta
// between counterless and no encryption is the AES latency.
func (r *Runner) Sec3Micro() (Figure, error) {
	f := Figure{
		ID:      "Sec3",
		Title:   "Pointer-chase microbenchmark: per-miss latency (ns), counterless vs no encryption",
		Columns: []string{"config", "miss latency (ns)", "delta vs noenc (ns)"},
	}
	micro := trace.MicroPointerChase()
	if err := r.prewarm(cross([]trace.Workload{micro},
		variant{scheme: core.NoEnc, noPrefet: true, cores: 1},
		variant{scheme: core.Counterless, noPrefet: true, cores: 1},
		variant{scheme: core.Counterless, aes256: true, noPrefet: true, cores: 1},
	)); err != nil {
		return f, err
	}
	v := variant{scheme: core.NoEnc, noPrefet: true, cores: 1}
	base, err := r.run(micro, v)
	if err != nil {
		return f, err
	}
	v.scheme = core.Counterless
	cls, err := r.run(micro, v)
	if err != nil {
		return f, err
	}
	v.aes256 = true
	cls256, err := r.run(micro, v)
	if err != nil {
		return f, err
	}
	f.Rows = [][]string{
		{"no encryption", ns1(base.AvgMissLatNS), "0.0"},
		{"counterless AES-128", ns1(cls.AvgMissLatNS), ns1(cls.AvgMissLatNS - base.AvgMissLatNS)},
		{"counterless AES-256", ns1(cls256.AvgMissLatNS), ns1(cls256.AvgMissLatNS - base.AvgMissLatNS)},
	}
	f.Notes = append(f.Notes, "paper: TME adds ~10 ns (AES-128) per LLC miss on an Intel Silver 4314; AES-256 simulated at 14 ns")
	return f, nil
}

// Fig5 reproduces Fig. 5: counterless performance normalized to no
// encryption for the irregular set, AES-128 and AES-256.
func (r *Runner) Fig5() (Figure, error) {
	f := Figure{
		ID:      "Fig5",
		Title:   "Counterless performance normalized to no encryption (irregular workloads)",
		Columns: []string{"workload", "AES-128", "AES-256"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.Counterless},
		variant{scheme: core.Counterless, aes256: true},
	)); err != nil {
		return f, err
	}
	var v128, v256 []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc})
		if err != nil {
			return f, err
		}
		c128, err := r.run(w, variant{scheme: core.Counterless})
		if err != nil {
			return f, err
		}
		c256, err := r.run(w, variant{scheme: core.Counterless, aes256: true})
		if err != nil {
			return f, err
		}
		p128 := c128.PerfNormalizedTo(base)
		p256 := c256.PerfNormalizedTo(base)
		v128 = append(v128, p128)
		v256 = append(v256, p256)
		f.Rows = append(f.Rows, []string{w.Name, pct(p128), pct(p256)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(v128)), pct(stats.Mean(v256))})
	f.Notes = append(f.Notes, "paper: average 0.91 (AES-128, real system) and 0.87 (AES-256, simulated)")
	return f, nil
}

// Fig8 reproduces Fig. 8: the distribution of counter arrival minus
// data arrival across all LLC misses under RMCC (counter mode with
// memoization).
func (r *Runner) Fig8() (Figure, error) {
	f := Figure{
		ID:      "Fig8",
		Title:   "Counter arrival minus data arrival across LLC misses (counter mode/RMCC)",
		Columns: []string{"workload", "<=0ns", "(0,5]ns", "(5,10]ns", ">10ns", "counter late"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(), variant{scheme: core.CounterMode})); err != nil {
		return f, err
	}
	var late []float64
	for _, w := range trace.IrregularSet() {
		res, err := r.run(w, variant{scheme: core.CounterMode})
		if err != nil {
			return f, err
		}
		fr := res.CounterLateHist.Fractions()
		late = append(late, res.CounterLateFrac)
		f.Rows = append(f.Rows, []string{
			w.Name, pc1(fr[0]), pc1(fr[1]), pc1(fr[2]), pc1(fr[3]), pc1(res.CounterLateFrac),
		})
	}
	f.Rows = append(f.Rows, []string{"mean", "", "", "", "", pc1(stats.Mean(late))})
	f.Notes = append(f.Notes, "paper: counter arrives later than data for 22% of all LLC misses")
	return f, nil
}

// Fig9 reproduces Fig. 9: the slowdown caused strictly by fetching the
// missing block's one counter per read miss (all writeback counter and
// tree traffic dropped), with counterless as the reference.
func (r *Runner) Fig9() (Figure, error) {
	f := Figure{
		ID:      "Fig9",
		Title:   "Overhead of the single per-miss counter access vs counterless (normalized to no encryption)",
		Columns: []string{"workload", "single-counter", "counterless"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.CounterModeSingle},
		variant{scheme: core.Counterless},
	)); err != nil {
		return f, err
	}
	var vs, vc []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc})
		if err != nil {
			return f, err
		}
		single, err := r.run(w, variant{scheme: core.CounterModeSingle})
		if err != nil {
			return f, err
		}
		cls, err := r.run(w, variant{scheme: core.Counterless})
		if err != nil {
			return f, err
		}
		ps := single.PerfNormalizedTo(base)
		pc := cls.PerfNormalizedTo(base)
		vs = append(vs, ps)
		vc = append(vc, pc)
		f.Rows = append(f.Rows, []string{w.Name, pct(ps), pct(pc)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(vs)), pct(stats.Mean(vc))})
	f.Notes = append(f.Notes, "paper: the one counter access alone costs 7% on average, almost as much as counterless encryption's 9%")
	return f, nil
}

// Fig16 reproduces Fig. 16: Counter-light and counterless normalized
// to no encryption under AES-128 and AES-256 at 25.6 GB/s.
func (r *Runner) Fig16() (Figure, error) {
	f := Figure{
		ID:      "Fig16",
		Title:   "Performance normalized to no encryption, 25.6 GB/s (irregular workloads)",
		Columns: []string{"workload", "counterless-128", "counterlight-128", "counterless-256", "counterlight-256"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.Counterless},
		variant{scheme: core.CounterLight},
		variant{scheme: core.Counterless, aes256: true},
		variant{scheme: core.CounterLight, aes256: true},
	)); err != nil {
		return f, err
	}
	var cl128s, cls128s, cl256s, cls256s []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc})
		if err != nil {
			return f, err
		}
		get := func(s core.Scheme, aes256 bool) (float64, error) {
			res, err := r.run(w, variant{scheme: s, aes256: aes256})
			if err != nil {
				return 0, err
			}
			return res.PerfNormalizedTo(base), nil
		}
		cls128, err := get(core.Counterless, false)
		if err != nil {
			return f, err
		}
		cl128, err := get(core.CounterLight, false)
		if err != nil {
			return f, err
		}
		cls256, err := get(core.Counterless, true)
		if err != nil {
			return f, err
		}
		cl256, err := get(core.CounterLight, true)
		if err != nil {
			return f, err
		}
		cls128s = append(cls128s, cls128)
		cl128s = append(cl128s, cl128)
		cls256s = append(cls256s, cls256)
		cl256s = append(cl256s, cl256)
		f.Rows = append(f.Rows, []string{w.Name, pct(cls128), pct(cl128), pct(cls256), pct(cl256)})
	}
	f.Rows = append(f.Rows, []string{"mean",
		pct(stats.Mean(cls128s)), pct(stats.Mean(cl128s)),
		pct(stats.Mean(cls256s)), pct(stats.Mean(cl256s))})
	f.Notes = append(f.Notes,
		"paper: counter-light <=2% average slowdown; improvement over counterless 8.6% (AES-128) and 13.0% (AES-256)")
	return f, nil
}

// Fig17 reproduces Fig. 17: average LLC miss latency overhead vs no
// encryption.
func (r *Runner) Fig17() (Figure, error) {
	f := Figure{
		ID:      "Fig17",
		Title:   "Average LLC miss latency overhead vs no encryption (ns)",
		Columns: []string{"workload", "counterless-128", "counterlight-128", "counterless-256", "counterlight-256"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.Counterless},
		variant{scheme: core.CounterLight},
		variant{scheme: core.Counterless, aes256: true},
		variant{scheme: core.CounterLight, aes256: true},
	)); err != nil {
		return f, err
	}
	var d128c, d128l, d256c, d256l []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc})
		if err != nil {
			return f, err
		}
		delta := func(s core.Scheme, aes256 bool) (float64, error) {
			res, err := r.run(w, variant{scheme: s, aes256: aes256})
			if err != nil {
				return 0, err
			}
			return res.AvgMissLatNS - base.AvgMissLatNS, nil
		}
		c128, err := delta(core.Counterless, false)
		if err != nil {
			return f, err
		}
		l128, err := delta(core.CounterLight, false)
		if err != nil {
			return f, err
		}
		c256, err := delta(core.Counterless, true)
		if err != nil {
			return f, err
		}
		l256, err := delta(core.CounterLight, true)
		if err != nil {
			return f, err
		}
		d128c = append(d128c, c128)
		d128l = append(d128l, l128)
		d256c = append(d256c, c256)
		d256l = append(d256l, l256)
		f.Rows = append(f.Rows, []string{w.Name, ns1(c128), ns1(l128), ns1(c256), ns1(l256)})
	}
	f.Rows = append(f.Rows, []string{"mean",
		ns1(stats.Mean(d128c)), ns1(stats.Mean(d128l)),
		ns1(stats.Mean(d256c)), ns1(stats.Mean(d256l))})
	f.Notes = append(f.Notes,
		"paper: counter-light saves 7.2 ns (AES-128) / 11.2 ns (AES-256) of miss latency vs counterless")
	return f, nil
}

// Fig18 reproduces Fig. 18: DRAM bandwidth utilization under 25.6 and
// 6.4 GB/s.
func (r *Runner) Fig18() (Figure, error) {
	f := Figure{
		ID:      "Fig18",
		Title:   "DRAM bandwidth utilization",
		Columns: []string{"workload", "noenc@25.6", "counterless@25.6", "counterlight@25.6", "noenc@6.4", "counterlight@6.4"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.Counterless},
		variant{scheme: core.CounterLight},
		variant{scheme: core.NoEnc, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4},
	)); err != nil {
		return f, err
	}
	var u0, u1, u2, u3, u4 []float64
	for _, w := range trace.IrregularSet() {
		vals := make([]float64, 5)
		for i, v := range []variant{
			{scheme: core.NoEnc},
			{scheme: core.Counterless},
			{scheme: core.CounterLight},
			{scheme: core.NoEnc, bw: 6.4},
			{scheme: core.CounterLight, bw: 6.4},
		} {
			res, err := r.run(w, v)
			if err != nil {
				return f, err
			}
			vals[i] = res.BusUtilization
		}
		u0 = append(u0, vals[0])
		u1 = append(u1, vals[1])
		u2 = append(u2, vals[2])
		u3 = append(u3, vals[3])
		u4 = append(u4, vals[4])
		f.Rows = append(f.Rows, []string{w.Name,
			pc1(vals[0]), pc1(vals[1]), pc1(vals[2]), pc1(vals[3]), pc1(vals[4])})
	}
	f.Rows = append(f.Rows, []string{"mean",
		pc1(stats.Mean(u0)), pc1(stats.Mean(u1)), pc1(stats.Mean(u2)),
		pc1(stats.Mean(u3)), pc1(stats.Mean(u4))})
	f.Notes = append(f.Notes,
		"paper: 22% (no encryption) -> 36% (counter-light) at 25.6 GB/s; 73% at 6.4 GB/s")
	return f, nil
}

// Fig19 reproduces Fig. 19: DRAM energy per instruction under
// Counter-light, normalized to counterless (AES-128).
func (r *Runner) Fig19() (Figure, error) {
	f := Figure{
		ID:      "Fig19",
		Title:   "DRAM energy per instruction, counter-light normalized to counterless",
		Columns: []string{"workload", "normalized energy/instr"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.Counterless},
		variant{scheme: core.CounterLight},
	)); err != nil {
		return f, err
	}
	var vals []float64
	for _, w := range trace.IrregularSet() {
		cls, err := r.run(w, variant{scheme: core.Counterless})
		if err != nil {
			return f, err
		}
		cl, err := r.run(w, variant{scheme: core.CounterLight})
		if err != nil {
			return f, err
		}
		ratio := cl.EnergyPerInst / cls.EnergyPerInst
		vals = append(vals, ratio)
		f.Rows = append(f.Rows, []string{w.Name, pct(ratio)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(vals))})
	f.Notes = append(f.Notes, "paper: 5.1% average energy saving; omnetpp can exceed 1.0")
	return f, nil
}

// Fig20 reproduces Fig. 20: performance under the starved 6.4 GB/s
// channel, normalized to no encryption.
func (r *Runner) Fig20() (Figure, error) {
	f := Figure{
		ID:      "Fig20",
		Title:   "Performance at 6.4 GB/s normalized to no encryption",
		Columns: []string{"workload", "counterless", "counterlight", "counterlight/counterless"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc, bw: 6.4},
		variant{scheme: core.Counterless, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4},
	)); err != nil {
		return f, err
	}
	var worst float64 = 10
	var cls6, cl6 []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc, bw: 6.4})
		if err != nil {
			return f, err
		}
		cls, err := r.run(w, variant{scheme: core.Counterless, bw: 6.4})
		if err != nil {
			return f, err
		}
		cl, err := r.run(w, variant{scheme: core.CounterLight, bw: 6.4})
		if err != nil {
			return f, err
		}
		pc := cls.PerfNormalizedTo(base)
		pl := cl.PerfNormalizedTo(base)
		rel := pl / pc
		if rel < worst {
			worst = rel
		}
		cls6 = append(cls6, pc)
		cl6 = append(cl6, pl)
		f.Rows = append(f.Rows, []string{w.Name, pct(pc), pct(pl), pct(rel)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(cls6)), pct(stats.Mean(cl6)), ""})
	f.Notes = append(f.Notes,
		fmt.Sprintf("worst counter-light/counterless ratio: %.3f (paper: worst case 0.986, i.e. 1.4%% slower)", worst))
	return f, nil
}

// Fig21 reproduces Fig. 21: the share of LLC writebacks using
// counterless mode vs the bandwidth threshold, at 6.4 GB/s (plus the
// 25.6 GB/s reference at the default threshold).
func (r *Runner) Fig21() (Figure, error) {
	f := Figure{
		ID:      "Fig21",
		Title:   "LLC writebacks using counterless mode (counter-light)",
		Columns: []string{"workload", "th=10%@6.4", "th=60%@6.4", "th=80%@6.4", "th=60%@25.6"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.10},
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.60},
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.80},
		variant{scheme: core.CounterLight, bw: 25.6, threshold: 0.60},
	)); err != nil {
		return f, err
	}
	var m10, m60, m80, mRef []float64
	for _, w := range trace.IrregularSet() {
		get := func(th, bw float64) (float64, error) {
			res, err := r.run(w, variant{scheme: core.CounterLight, bw: bw, threshold: th})
			if err != nil {
				return 0, err
			}
			return res.CounterlessWBFraction(), nil
		}
		f10, err := get(0.10, 6.4)
		if err != nil {
			return f, err
		}
		f60, err := get(0.60, 6.4)
		if err != nil {
			return f, err
		}
		f80, err := get(0.80, 6.4)
		if err != nil {
			return f, err
		}
		ref, err := get(0.60, 25.6)
		if err != nil {
			return f, err
		}
		m10 = append(m10, f10)
		m60 = append(m60, f60)
		m80 = append(m80, f80)
		mRef = append(mRef, ref)
		f.Rows = append(f.Rows, []string{w.Name, pc1(f10), pc1(f60), pc1(f80), pc1(ref)})
	}
	f.Rows = append(f.Rows, []string{"mean",
		pc1(stats.Mean(m10)), pc1(stats.Mean(m60)), pc1(stats.Mean(m80)), pc1(stats.Mean(mRef))})
	f.Notes = append(f.Notes,
		"paper: 100% / 91% / ~70% at thresholds 10/60/80% under 6.4 GB/s; only 3% at 25.6 GB/s")
	return f, nil
}

// Fig22 reproduces Fig. 22: performance under different thresholds at
// 6.4 GB/s, normalized to counterless.
func (r *Runner) Fig22() (Figure, error) {
	f := Figure{
		ID:      "Fig22",
		Title:   "Performance vs bandwidth threshold at 6.4 GB/s, normalized to counterless",
		Columns: []string{"workload", "th=10%", "th=60%", "th=80%"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.Counterless, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.10},
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.60},
		variant{scheme: core.CounterLight, bw: 6.4, threshold: 0.80},
	)); err != nil {
		return f, err
	}
	var m10, m60, m80 []float64
	for _, w := range trace.IrregularSet() {
		cls, err := r.run(w, variant{scheme: core.Counterless, bw: 6.4})
		if err != nil {
			return f, err
		}
		get := func(th float64) (float64, error) {
			res, err := r.run(w, variant{scheme: core.CounterLight, bw: 6.4, threshold: th})
			if err != nil {
				return 0, err
			}
			return res.PerfNormalizedTo(cls), nil
		}
		p10, err := get(0.10)
		if err != nil {
			return f, err
		}
		p60, err := get(0.60)
		if err != nil {
			return f, err
		}
		p80, err := get(0.80)
		if err != nil {
			return f, err
		}
		m10 = append(m10, p10)
		m60 = append(m60, p60)
		m80 = append(m80, p80)
		f.Rows = append(f.Rows, []string{w.Name, pct(p10), pct(p60), pct(p80)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(m10)), pct(stats.Mean(m60)), pct(stats.Mean(m80))})
	return f, nil
}

// Fig23 reproduces Fig. 23: the regular workloads at 25.6 GB/s (plus
// the quarter-bandwidth variant the text mentions).
func (r *Runner) Fig23() (Figure, error) {
	f := Figure{
		ID:      "Fig23",
		Title:   "Regular workloads normalized to no encryption",
		Columns: []string{"workload", "counterless@25.6", "counterlight@25.6", "counterless@6.4", "counterlight@6.4"},
	}
	if err := r.prewarm(cross(trace.RegularSet(),
		variant{scheme: core.NoEnc, bw: 25.6},
		variant{scheme: core.Counterless, bw: 25.6},
		variant{scheme: core.CounterLight, bw: 25.6},
		variant{scheme: core.NoEnc, bw: 6.4},
		variant{scheme: core.Counterless, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4},
	)); err != nil {
		return f, err
	}
	var a, b, c, d []float64
	for _, w := range trace.RegularSet() {
		get := func(s core.Scheme, bw float64) (float64, error) {
			base, err := r.run(w, variant{scheme: core.NoEnc, bw: bw})
			if err != nil {
				return 0, err
			}
			res, err := r.run(w, variant{scheme: s, bw: bw})
			if err != nil {
				return 0, err
			}
			return res.PerfNormalizedTo(base), nil
		}
		p1, err := get(core.Counterless, 25.6)
		if err != nil {
			return f, err
		}
		p2, err := get(core.CounterLight, 25.6)
		if err != nil {
			return f, err
		}
		p3, err := get(core.Counterless, 6.4)
		if err != nil {
			return f, err
		}
		p4, err := get(core.CounterLight, 6.4)
		if err != nil {
			return f, err
		}
		a, b, c, d = append(a, p1), append(b, p2), append(c, p3), append(d, p4)
		f.Rows = append(f.Rows, []string{w.Name, pct(p1), pct(p2), pct(p3), pct(p4)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(a)), pct(stats.Mean(b)), pct(stats.Mean(c)), pct(stats.Mean(d))})
	f.Notes = append(f.Notes, "paper: 96.6% (counterless) vs 99.5% (counter-light) at full bandwidth")
	return f, nil
}

// AblationNoSwitch reproduces the §VI sensitivity study: Counter-light
// without dynamic mode switching, at 6.4 GB/s, normalized to
// counterless.
func (r *Runner) AblationNoSwitch() (Figure, error) {
	f := Figure{
		ID:      "AblA",
		Title:   "Ablation: counter-light without dynamic switching at 6.4 GB/s, normalized to counterless",
		Columns: []string{"workload", "with switch", "without switch"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.Counterless, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4},
		variant{scheme: core.CounterLight, bw: 6.4, noSwitch: true},
	)); err != nil {
		return f, err
	}
	var on, off []float64
	for _, w := range trace.IrregularSet() {
		cls, err := r.run(w, variant{scheme: core.Counterless, bw: 6.4})
		if err != nil {
			return f, err
		}
		sw, err := r.run(w, variant{scheme: core.CounterLight, bw: 6.4})
		if err != nil {
			return f, err
		}
		nosw, err := r.run(w, variant{scheme: core.CounterLight, bw: 6.4, noSwitch: true})
		if err != nil {
			return f, err
		}
		pOn := sw.PerfNormalizedTo(cls)
		pOff := nosw.PerfNormalizedTo(cls)
		on = append(on, pOn)
		off = append(off, pOff)
		f.Rows = append(f.Rows, []string{w.Name, pct(pOn), pct(pOff)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(on)), pct(stats.Mean(off))})
	f.Notes = append(f.Notes,
		"paper: without switching, average degradation is 20% vs counterless; omnetpp loses 51%; GraphColoring improves")
	return f, nil
}

// AblationMemo measures the memoization table's contribution under
// Counter-light.
func (r *Runner) AblationMemo() (Figure, error) {
	f := Figure{
		ID:      "AblM",
		Title:   "Ablation: counter-light with the memoization table disabled, normalized to no encryption",
		Columns: []string{"workload", "memo on", "memo off"},
	}
	if err := r.prewarm(cross(trace.IrregularSet(),
		variant{scheme: core.NoEnc},
		variant{scheme: core.CounterLight},
		variant{scheme: core.CounterLight, memoOff: true},
	)); err != nil {
		return f, err
	}
	var on, off []float64
	for _, w := range trace.IrregularSet() {
		base, err := r.run(w, variant{scheme: core.NoEnc})
		if err != nil {
			return f, err
		}
		cl, err := r.run(w, variant{scheme: core.CounterLight})
		if err != nil {
			return f, err
		}
		res, err := r.run(w, variant{scheme: core.CounterLight, memoOff: true})
		if err != nil {
			return f, err
		}
		pOn := cl.PerfNormalizedTo(base)
		pOff := res.PerfNormalizedTo(base)
		on = append(on, pOn)
		off = append(off, pOff)
		f.Rows = append(f.Rows, []string{w.Name, pct(pOn), pct(pOff)})
	}
	f.Rows = append(f.Rows, []string{"mean", pct(stats.Mean(on)), pct(stats.Mean(off))})
	f.Notes = append(f.Notes, "without memoized counter-AES results, counter-mode reads recompute AES from the decoded counter (still overlapped with the tail of the burst)")
	return f, nil
}

// TableI prints the system configuration actually used, mirroring the
// paper's Table I.
func TableI() Figure {
	cfg := core.DefaultConfig(core.CounterLight)
	f := Figure{
		ID:      "TableI",
		Title:   "System configuration",
		Columns: []string{"parameter", "value"},
	}
	f.Rows = [][]string{
		{"CPU", fmt.Sprintf("%d OoO cores, 3.2 GHz, MLP window %d", cfg.Cores, cfg.MLP)},
		{"Prefetchers", "next-line (deg 2) + stride (deg 2) trained on L1 misses"},
		{"L1/L2/L3", fmt.Sprintf("%dKB/%dMB/%dMB; %d/%d/%d ns", cfg.L1Size>>10, cfg.L2Size>>20, cfg.L3Size>>20, cfg.L1Lat/1000, cfg.L2Lat/1000, cfg.L3Lat/1000)},
		{"Counter$/Memo table", fmt.Sprintf("%dKB %d-way, %d entries", cfg.CounterCacheSize>>10, cfg.CounterCacheWays, cfg.MemoEntries)},
		{"AES-128/AES-256/SHA-3", fmt.Sprintf("%d ns / 14 ns / %d ns", cfg.AESLat/1000, cfg.SHA3Lat/1000)},
		{"Memory", fmt.Sprintf("%d GB, %.1f GB/s (stress: 6.4 GB/s)", cfg.MemorySize>>30, cfg.BandwidthGBs)},
		{"tCL/tRCD/tRP", "13.75/13.75/13.75 ns"},
		{"Channels/Ranks", "1/8"},
		{"Bandwidth threshold", fmt.Sprintf("%.0f%%, %d us epochs", cfg.Threshold*100, cfg.EpochLen/1_000_000)},
	}
	return f
}

// All runs every figure in paper order.
func (r *Runner) All() ([]Figure, error) {
	out := []Figure{TableI()}
	for _, gen := range []func() (Figure, error){
		r.Sec3Micro, r.Fig5, r.Fig8, r.Fig9, r.Fig16, r.Fig17, r.Fig18,
		r.Fig19, r.Fig20, r.Fig21, r.Fig22, r.Fig23,
		r.AblationNoSwitch, r.AblationMemo,
		func() (Figure, error) { return SecIVE(0) },
	} {
		fig, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
