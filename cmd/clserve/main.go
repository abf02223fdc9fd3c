// Command clserve runs the counter-light memory controller as a
// standing network service: a cluster of sharded engine pools
// (internal/cluster over internal/mcpool) under synthetic load. N
// connection goroutines issue reads and Auto-mode writes against
// disjoint block ranges while a sampler records queue depths, the
// per-node watermark degrades writebacks under pressure (§IV-B), and
// the cluster-level admission policy sheds load once too many nodes
// are degraded. With -addr the monitoring server also mounts the
// cluster's HTTP request plane (/v1/submit, /v1/read, /v1/flush,
// /v1/topology), so external clients share the same data path as the
// synthetic load. SIGTERM (or -duration expiry) drains gracefully: new
// work is fenced off, in-flight work is flushed through a barrier, and
// with -verify every node's journal history is replayed bit-for-bit
// before exit.
//
// Usage:
//
//	clserve -conns 8 -duration 10s
//	clserve -conns 16 -qps 50000 -duration 30s -csv queue-depth.csv
//	clserve -nodes 4                  # route across 4 controllers
//	clserve -nodes 2 -chaos -verify   # kill+restart a node mid-run, replay journals at exit
//	clserve -qps 40000 -qps-tolerance 0.05  # fail unless attempted rate is within 5% of target
//	clserve -addr :8080               # monitoring + request plane: /metrics, /health, /v1/...
//	clserve -attrib                   # per-op latency attribution breakdown at exit
//	clserve -metrics-json final.json  # dump the full registry on clean shutdown
//	clserve -adaptive                 # measurement-driven watermark instead of static 3/4
//	clserve -slo-p99 2ms -health health.json  # grade the run against an SLO
//	clserve -flight flight.json       # dump the flight recorder at exit (and on SIGQUIT)
//	clserve -duration 0               # run until interrupted
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"counterlight/internal/cluster"
	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
	"counterlight/internal/obs/serve"
)

// runConfig carries every knob from flag parsing into run.
type runConfig struct {
	conns       int
	qps         int
	qpsTol      float64
	duration    time.Duration
	nodes       int
	maxDegFrac  float64
	chaos       bool
	chaosAt     time.Duration
	chaosDown   time.Duration
	verify      bool
	shards      int
	queue       int
	batch       int
	watermark   int
	adaptive    bool
	targetDelay time.Duration
	blocks      int
	readFrac    float64
	seed        int64
	csvPath     string
	addr        string
	attrib      bool
	metricsJSON string
	sloP99      time.Duration
	sloMaxDeg   float64
	healthPath  string
	flightPath  string
}

func main() {
	var cfg runConfig
	flag.IntVar(&cfg.conns, "conns", 8, "concurrent connection goroutines")
	flag.IntVar(&cfg.qps, "qps", 0, "total target request rate across all connections (0 = closed loop, as fast as the pool absorbs)")
	flag.Float64Var(&cfg.qpsTol, "qps-tolerance", 0, "fail the run unless the attempted request rate is within this fraction of -qps (0 disables; requires -qps)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load (0 = until SIGINT/SIGTERM)")
	flag.IntVar(&cfg.nodes, "nodes", 1, "controller nodes; addresses interleave across them in shard-sized stripes")
	flag.Float64Var(&cfg.maxDegFrac, "max-degraded-frac", 0, "cluster admission knee: shed new requests once MORE than this fraction of nodes is degraded or down (0 = auto: disabled for -nodes 1, 0.5 otherwise; negative disables)")
	flag.BoolVar(&cfg.chaos, "chaos", false, "kill one node -chaos-at into the run and restart it -chaos-down later; implies the persistent journal so the node recovers through the NVM path (needs -nodes >= 2)")
	flag.DurationVar(&cfg.chaosAt, "chaos-at", time.Second, "when to kill the chaos target node")
	flag.DurationVar(&cfg.chaosDown, "chaos-down", 500*time.Millisecond, "how long the killed node stays down before restart")
	flag.BoolVar(&cfg.verify, "verify", false, "journal every applied op and replay each node's full segment history bit-for-bit after the drain (implies the persistent journal; memory grows with ops)")
	flag.IntVar(&cfg.shards, "shards", 8, "pool shards per node")
	flag.IntVar(&cfg.queue, "queue", 256, "per-shard queue depth")
	flag.IntVar(&cfg.batch, "batch", 32, "per-lock-acquisition batch cap")
	flag.IntVar(&cfg.watermark, "watermark", 0, "queue depth at which Auto writes degrade to counterless (0 = default 3/4 of -queue, negative disables, ignored with -adaptive)")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "derive the watermark from measured shard service time instead of the static -watermark")
	flag.DurationVar(&cfg.targetDelay, "target-delay", 0, "adaptive watermark queueing-delay target (0 = mcpool default)")
	flag.IntVar(&cfg.blocks, "blocks", 8192, "working-set size in 64-byte blocks, split across connections")
	flag.Float64Var(&cfg.readFrac, "read-frac", 0.5, "fraction of requests that are reads")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&cfg.csvPath, "csv", "", "append 100ms queue-depth samples to this CSV file")
	flag.StringVar(&cfg.addr, "addr", "", "serve the monitoring server and the cluster request plane (/metrics, /api/profile, /health, /v1/...) on this address while running")
	flag.BoolVar(&cfg.attrib, "attrib", false, "enable per-op latency attribution and print the queue/batch/service/writeback breakdown at exit")
	flag.StringVar(&cfg.metricsJSON, "metrics-json", "", "write the final metrics registry (cluster, per-node, and profiler series included) as JSON to this path on clean shutdown (clreport -compare input)")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "submit→wait p99 latency objective, worst node (0 disables the check)")
	flag.Float64Var(&cfg.sloMaxDeg, "slo-max-degraded", 0, "max fraction of writes degraded to counterless per SLO window (0 disables)")
	flag.StringVar(&cfg.healthPath, "health", "", "write the final health verdict as JSON to this path (clreport -health input)")
	flag.StringVar(&cfg.flightPath, "flight", "", "write the flight recorder dump as JSON to this path at exit and on SIGQUIT")
	flag.Parse()

	// Reject bad sizing here, at flag time, with a message naming the
	// flags — not a confusing failure minutes into a soak.
	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "clserve:", err)
		os.Exit(2)
	}
	if code := run(cfg); code != 0 {
		os.Exit(code)
	}
}

// validate cross-checks the flag set before any resources are built.
func validate(rc runConfig) error {
	if rc.conns <= 0 {
		return fmt.Errorf("-conns must be at least 1 (got %d)", rc.conns)
	}
	if rc.blocks < rc.conns {
		return fmt.Errorf("-blocks (%d) must be at least -conns (%d): every connection needs its own block range", rc.blocks, rc.conns)
	}
	if rc.nodes <= 0 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", rc.nodes)
	}
	if rc.qps < 0 {
		return fmt.Errorf("-qps must be non-negative (got %d)", rc.qps)
	}
	if rc.readFrac < 0 || rc.readFrac > 1 {
		return fmt.Errorf("-read-frac must be in [0, 1] (got %g)", rc.readFrac)
	}
	if rc.qpsTol < 0 {
		return fmt.Errorf("-qps-tolerance must be non-negative (got %g)", rc.qpsTol)
	}
	if rc.qpsTol > 0 && rc.qps <= 0 {
		return fmt.Errorf("-qps-tolerance needs a -qps target to compare against")
	}
	if rc.chaos {
		if rc.nodes < 2 {
			return fmt.Errorf("-chaos needs -nodes >= 2: killing the only node leaves nothing to serve")
		}
		if rc.chaosAt <= 0 || rc.chaosDown <= 0 {
			return fmt.Errorf("-chaos-at and -chaos-down must be positive")
		}
		if rc.duration > 0 && rc.chaosAt+rc.chaosDown >= rc.duration {
			return fmt.Errorf("chaos window (-chaos-at %s + -chaos-down %s) must fit inside -duration %s", rc.chaosAt, rc.chaosDown, rc.duration)
		}
	}
	return nil
}

func run(rc runConfig) int {
	opts := core.DefaultEngineOptions()
	if need := uint64(rc.blocks) * 64; need > opts.MemSize {
		opts.MemSize = need
	}
	// The profiler and flight recorder are always on: the probes are
	// sampled and lock-free, the ring is bounded, and a run you can't
	// interrogate after the fact is a run wasted. The cluster clones
	// the profiler per node so estimates don't mix across controllers.
	rec := flight.NewRing(4096)
	persist := rc.chaos || rc.verify
	maxDeg := rc.maxDegFrac
	if maxDeg == 0 && rc.nodes == 1 {
		// A single node keeps the paper's pure §IV-B behavior: degrade
		// writes under pressure, never refuse them.
		maxDeg = -1
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:           rc.nodes,
		MaxDegradedFrac: maxDeg,
		Flight:          rec,
		Node: mcpool.Config{
			Shards:            rc.shards,
			QueueDepth:        rc.queue,
			BatchMax:          rc.batch,
			Watermark:         rc.watermark,
			AdaptiveWatermark: rc.adaptive,
			TargetDelayNs:     rc.targetDelay.Nanoseconds(),
			Attribution:       rc.attrib,
			Profile:           prof.New(aes.DefaultBackend()),
			Persist:           persist,
			Engine:            opts,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "clserve: %v\n", err)
		return 1
	}
	reg := obs.NewRegistry()
	rec.RegisterMetrics(reg)
	latency := reg.Histogram("clserve_request_latency_ns")

	evaluator := prof.NewEvaluator(prof.SLOConfig{
		SubmitP99Ns:     rc.sloP99.Nanoseconds(),
		MaxDegradedFrac: rc.sloMaxDeg,
	})
	slo := newSLOLoop(evaluator, cl)
	slo.start()

	if rc.flightPath != "" {
		stop := flight.DumpOnSignal(rec, rc.flightPath, syscall.SIGQUIT)
		defer stop()
	}

	ctx := context.Background()
	if rc.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.duration)
		defer cancel()
	} else {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintln(os.Stderr, "clserve: running until interrupted (SIGINT/SIGTERM drains)")
	}

	var srv *serve.Server
	if rc.addr != "" {
		srv = serve.New()
		srv.MergeRegistry(reg)
		srv.MergeRegistry(cl.Registry())
		for i := 0; i < cl.Nodes(); i++ {
			srv.MergeRegistry(cl.NodeRegistry(i))
		}
		attachProfiles(srv, cl)
		srv.SetHealth(func() prof.Health { return evaluator.Last() })
		srv.SetFlight(rec)
		srv.Handle("/v1/", cluster.NewAPI(cl).Handler())
		bound, err := srv.ListenAndServe(rc.addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clserve: -addr: %v\n", err)
			return 1
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // exiting anyway
		}()
		fmt.Fprintf(os.Stderr, "clserve: serving metrics on http://%s/metrics\n", bound)
	}

	var sampler *csvSampler
	if rc.csvPath != "" {
		sampler, err = newCSVSampler(rc.csvPath, cl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clserve: -csv: %v\n", err)
			return 1
		}
		sampler.start()
	}

	// Each connection owns a contiguous block range: single writer per
	// block, so per-address ordering needs no cross-connection locks —
	// the same discipline the per-bank queues of a real MC enforce.
	var wg sync.WaitGroup
	stats := make([]connStats, rc.conns)
	errs := make([]error, rc.conns)
	start := time.Now()
	for c := 0; c < rc.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c], errs[c] = connection(ctx, cl, latency, connConfig{
				id:       c,
				lo:       uint64(c*rc.blocks/rc.conns) * 64,
				hi:       uint64((c+1)*rc.blocks/rc.conns) * 64,
				readFrac: rc.readFrac,
				seed:     rc.seed + int64(c),
				interval: paceInterval(rc.qps, rc.conns),
			})
		}(c)
	}

	var chaosWG sync.WaitGroup
	if rc.chaos {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaosController(ctx, cl, srv, rc)
		}()
	}

	wg.Wait()
	chaosWG.Wait()
	elapsed := time.Since(start)
	// Graceful drain: fence new submissions, then push every shard of
	// every live node through a flush barrier so in-flight work lands
	// before anything is torn down or verified.
	barrier := cl.Drain()
	if sampler != nil {
		sampler.stop()
	}
	health := slo.stop() // final evaluation over the whole run
	rec.RefreshMetrics(reg)
	agg := cl.Aggregate()
	watermarks := cl.Watermarks()
	moves := cl.WatermarkMoves()

	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "clserve: %v\n", err)
			return 1
		}
	}

	var total connStats
	for _, s := range stats {
		total.attempts += s.attempts
		total.completed += s.completed
		total.shed += s.shed
	}
	degradedPct := 0.0
	if agg.Writes > 0 {
		degradedPct = 100 * float64(agg.DegradedWrites) / float64(agg.Writes)
	}
	fenced := 0
	for _, seqs := range barrier {
		fenced += len(seqs)
	}
	// total.completed counts every acknowledged op across the whole
	// run; agg only sums live incarnations, so after a chaos
	// kill/restart its breakdown covers the surviving pools.
	fmt.Printf("clserve: %d nodes × %d shards, %d conns, %.1fs: %d ops (%.1f kops/s)\n",
		cl.Nodes(), rc.shards, rc.conns, elapsed.Seconds(), total.completed, float64(total.completed)/elapsed.Seconds()/1e3)
	fmt.Printf("  reads=%d writes=%d (counter=%d counterless=%d, %.1f%% degraded by watermarks %v)\n",
		agg.Reads, agg.Writes, agg.CounterModeWrites, agg.CounterlessWrites, degradedPct, watermarks)
	fmt.Printf("  mode-switches=%d batches=%d contention=%d max-queue-depth=%d\n",
		agg.ModeSwitches, agg.Batches, agg.Contention, agg.MaxQueueDepth)
	fmt.Printf("  latency p50≤%s p99≤%s\n", time.Duration(latency.Quantile(0.50)), time.Duration(latency.Quantile(0.99)))
	fmt.Printf("  drain: flush barrier fenced %d shards across %d nodes\n", fenced, cl.Nodes())
	if total.shed > 0 || agg.Kills > 0 {
		fmt.Printf("  cluster: shed=%d down-submits=%d kills=%d restarts=%d nodes-up=%d\n",
			total.shed, agg.DownSubmits, agg.Kills, agg.Restarts, agg.NodesUp)
	}
	if rc.adaptive {
		fmt.Printf("  adaptive watermark: settled at %v after %d moves (worst submit-wait p99 %s)\n",
			watermarks, moves, time.Duration(cl.SubmitP99()))
	}
	fmt.Printf("  flight: %d events recorded, %d evicted (ring %d)\n",
		rec.Recorded(), rec.Evicted(), rec.Size())
	fmt.Printf("  health: %s\n", renderHealth(health))
	if rc.attrib {
		printAttribution(cl)
	}

	code := 0
	if rc.qps > 0 {
		// The gate grades ATTEMPTED rate (completed + shed): pacing is
		// the load generator's contract, and a chaos dark window sheds
		// requests without slowing the clock.
		achieved := float64(total.attempts) / elapsed.Seconds()
		pct := 100 * achieved / float64(rc.qps)
		fmt.Printf("  pacing: target %d qps, attempted %.1f qps (%.1f%% of target), completed %.1f qps\n",
			rc.qps, achieved, pct, float64(total.completed)/elapsed.Seconds())
		if rc.qpsTol > 0 && math.Abs(achieved-float64(rc.qps)) > rc.qpsTol*float64(rc.qps) {
			fmt.Fprintf(os.Stderr, "clserve: attempted rate %.1f qps outside ±%.0f%% of the %d qps target\n",
				achieved, 100*rc.qpsTol, rc.qps)
			code = 1
		}
	}
	if rc.verify {
		mismatches, err := cl.Verify()
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "clserve: -verify: %v\n", err)
			code = 1
		case len(mismatches) > 0:
			for i, m := range mismatches {
				if i == 8 {
					fmt.Fprintf(os.Stderr, "clserve: ... %d more mismatches\n", len(mismatches)-i)
					break
				}
				fmt.Fprintf(os.Stderr, "clserve: verify mismatch: %s\n", m)
			}
			code = 1
		default:
			segs := 0
			for i := 0; i < cl.Nodes(); i++ {
				segs += len(cl.History(i))
			}
			fmt.Printf("  verify: %d node segments replayed bit-identically against their durable journals\n", segs)
		}
	}
	cl.Close()

	if rc.flightPath != "" {
		if err := rec.DumpFile(rc.flightPath); err != nil {
			fmt.Fprintf(os.Stderr, "clserve: -flight: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "clserve: wrote flight dump to %s\n", rc.flightPath)
	}
	if rc.healthPath != "" {
		if err := writeHealthJSON(rc.healthPath, health); err != nil {
			fmt.Fprintf(os.Stderr, "clserve: -health: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "clserve: wrote health verdict to %s\n", rc.healthPath)
	}
	if rc.metricsJSON != "" {
		regs := []*obs.Registry{reg, cl.Registry()}
		for i := 0; i < cl.Nodes(); i++ {
			regs = append(regs, cl.NodeRegistry(i))
		}
		if err := writeMetricsJSON(rc.metricsJSON, regs); err != nil {
			fmt.Fprintf(os.Stderr, "clserve: -metrics-json: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "clserve: wrote metrics snapshot to %s\n", rc.metricsJSON)
	}
	if health.State == prof.StateFailing {
		fmt.Fprintln(os.Stderr, "clserve: SLO verdict FAILING")
		return 1
	}
	return code
}

// chaosController kills the highest-numbered node -chaos-at into the
// run and restarts it -chaos-down later, recovering through the NVM
// journal path. If the run ends inside the dark window the node stays
// down — Drain and Verify both handle a dead node.
func chaosController(ctx context.Context, cl *cluster.Cluster, srv *serve.Server, rc runConfig) {
	target := cl.Nodes() - 1
	select {
	case <-ctx.Done():
		return
	case <-time.After(rc.chaosAt):
	}
	if err := cl.Kill(target); err != nil {
		fmt.Fprintf(os.Stderr, "clserve: chaos: kill node %d: %v\n", target, err)
		return
	}
	fmt.Fprintf(os.Stderr, "clserve: chaos: killed node %d\n", target)
	select {
	case <-ctx.Done():
		return
	case <-time.After(rc.chaosDown):
	}
	rep, err := cl.Restart(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clserve: chaos: restart node %d: %v\n", target, err)
		return
	}
	replayed := 0
	for _, r := range rep {
		replayed += r.Replayed
	}
	fmt.Fprintf(os.Stderr, "clserve: chaos: restarted node %d (replayed %d journal entries across %d shards)\n",
		target, replayed, len(rep))
	if srv != nil {
		// Each incarnation gets a fresh profiler; repoint /api/profile.
		attachProfiles(srv, cl)
	}
}

// attachProfiles (re)binds every live node profiler to /api/profile.
// Node 0 keeps the historical "pool" name so existing dashboards and
// smoke checks stay valid.
func attachProfiles(srv *serve.Server, cl *cluster.Cluster) {
	for i, pf := range cl.Profilers() {
		if pf == nil {
			continue
		}
		name := "pool"
		if i > 0 {
			name = fmt.Sprintf("node%d", i)
		}
		srv.AddProfile(name, pf)
	}
}

// printAttribution renders the merged per-stage latency breakdown: for
// each pipeline stage (and the end-to-end total), sample count, mean,
// and histogram percentiles (at most 1/16 above the true value)
// across all live shards.
func printAttribution(cl *cluster.Cluster) {
	rows := cl.AttributionSummary()
	if len(rows) == 0 {
		return
	}
	fmt.Println("  attribution (per-op latency by stage, histogram percentiles):")
	fmt.Printf("    %-10s %10s %12s %12s %12s %12s\n", "stage", "count", "mean", "p50≤", "p95≤", "p99≤")
	for _, row := range rows {
		fmt.Printf("    %-10s %10d %12s %12s %12s %12s\n",
			row.Stage, row.Count, time.Duration(row.MeanNs),
			time.Duration(row.P50Ns), time.Duration(row.P95Ns), time.Duration(row.P99Ns))
	}
}

// writeMetricsJSON dumps the merged registries' final state in the
// clreport -compare / clsim -metrics-json interchange format: the
// serve-side registry, the cluster's admission counters, and every
// node's pool series (gen-labelled across restarts) in one snapshot.
func writeMetricsJSON(path string, regs []*obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := regs[0].Snapshot()
	for _, r := range regs[1:] {
		snap.Series = append(snap.Series, r.Snapshot().Series...)
	}
	err = snap.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// paceInterval converts a total qps target into one connection's
// inter-request interval (0 = closed loop). Computed as conns*1s/qps
// rather than 1s/(qps/conns): the integer division qps/conns truncates
// — at qps=100 across 64 conns it paced each conn at 1/s (36% under
// target), and at qps<conns it clamped to 1/s per conn (over target).
func paceInterval(qps, conns int) time.Duration {
	if qps <= 0 {
		return 0
	}
	return time.Duration(conns) * time.Second / time.Duration(qps)
}

// writtenSet tracks which of a connection's blocks have been written,
// bounded by the block count: a bitmap for dedup plus a first-write
// index list for O(1) uniform picks. (A naive append-per-write slice
// grows without bound over a soak — every rewrite appended.)
type writtenSet struct {
	bits []uint64
	idx  []uint32
}

func newWrittenSet(nblocks int) *writtenSet {
	return &writtenSet{bits: make([]uint64, (nblocks+63)/64)}
}

func (w *writtenSet) add(block uint32) {
	word, bit := block/64, uint64(1)<<(block%64)
	if w.bits[word]&bit == 0 {
		w.bits[word] |= bit
		w.idx = append(w.idx, block)
	}
}

func (w *writtenSet) len() int { return len(w.idx) }

func (w *writtenSet) pick(rng *rand.Rand) uint32 { return w.idx[rng.Intn(len(w.idx))] }

type connConfig struct {
	id       int
	lo, hi   uint64 // owned address range [lo, hi), block-aligned
	readFrac float64
	seed     int64
	interval time.Duration // 0 = closed loop
}

// connStats is one connection's request accounting. attempts =
// completed + shed; shed covers cluster capacity rejections (node
// down, admission overload), which are expected under chaos and are
// retried-by-moving-on rather than fatal.
type connStats struct {
	attempts  uint64
	completed uint64
	shed      uint64
}

// connection drives one closed-loop (or paced) request stream over
// its own block range until the context ends.
func connection(ctx context.Context, cl *cluster.Cluster, latency *obs.Histogram, cfg connConfig) (connStats, error) {
	var st connStats
	rng := rand.New(rand.NewSource(cfg.seed))
	nblocks := int((cfg.hi - cfg.lo) / 64)
	if nblocks <= 0 {
		return st, fmt.Errorf("connection %d owns no blocks", cfg.id)
	}
	written := newWrittenSet(nblocks)
	// Deadline pacing, not a ticker: a ticker drops ticks while the
	// connection is blocked in SubmitWait, silently degrading the
	// paced rate toward 1/latency. Advancing a fixed schedule instead
	// lets the loop issue back-to-back after a slow op until it has
	// caught up, so attempted rate tracks the target as long as the
	// cluster has the capacity.
	var timer *time.Timer
	next := time.Now()
	for {
		select {
		case <-ctx.Done():
			return st, nil
		default:
		}
		if cfg.interval > 0 {
			if d := time.Until(next); d > 0 {
				if timer == nil {
					timer = time.NewTimer(d)
					defer timer.Stop()
				} else {
					timer.Reset(d)
				}
				select {
				case <-ctx.Done():
					return st, nil
				case <-timer.C:
				}
			}
			next = next.Add(cfg.interval)
		}
		var req mcpool.Request
		isWrite := written.len() == 0 || rng.Float64() >= cfg.readFrac
		if isWrite {
			req = mcpool.Request{Kind: mcpool.OpWrite, Addr: cfg.lo + uint64(rng.Intn(nblocks))*64, Auto: true}
			rng.Read(req.Data[:])
		} else {
			req = mcpool.Request{Kind: mcpool.OpRead, Addr: cfg.lo + uint64(written.pick(rng))*64}
		}
		start := time.Now()
		// SubmitWait is the pooled synchronous path: zero allocations
		// per request in steady state (no future), so sustained load
		// doesn't feed the GC.
		resp := cl.SubmitWait(req)
		st.attempts++
		switch {
		case resp.Err == nil:
			st.completed++
			latency.Add(time.Since(start).Nanoseconds())
			if isWrite {
				// Mark only acknowledged writes: a shed write never
				// reached an engine, so reading it back would be a
				// legitimate miss, not a data-loss signal.
				written.add(uint32((req.Addr - cfg.lo) / 64))
			}
		case errors.Is(resp.Err, cluster.ErrDraining), errors.Is(resp.Err, cluster.ErrClosed):
			return st, nil // shutdown raced the last tick
		case errors.Is(resp.Err, cluster.ErrNodeDown), errors.Is(resp.Err, cluster.ErrOverloaded):
			st.shed++
			if cfg.interval == 0 {
				// Closed loop: don't hot-spin against a dark window.
				time.Sleep(100 * time.Microsecond)
			}
		default:
			return st, fmt.Errorf("connection %d: %w", cfg.id, resp.Err)
		}
	}
}

// csvSampler appends one cluster queue-depth sample line every 100ms.
// Down nodes report zero-depth shards, keeping the column count stable
// through a chaos window.
type csvSampler struct {
	f    *os.File
	cl   *cluster.Cluster
	t0   time.Time
	done chan struct{}
	wg   sync.WaitGroup
}

func newCSVSampler(path string, cl *cluster.Cluster) (*csvSampler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintln(f, "elapsed_ms,total_queue_depth,max_shard_depth,submitted,completed,degraded_writes,batches"); err != nil {
		f.Close()
		return nil, err
	}
	return &csvSampler{f: f, cl: cl, t0: time.Now(), done: make(chan struct{})}, nil
}

func (s *csvSampler) start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-s.done:
				s.sample() // final row so short runs still record data
				return
			case <-ticker.C:
				s.sample()
			}
		}
	}()
}

func (s *csvSampler) sample() {
	sm := s.cl.Sample()
	maxDepth := 0
	for _, d := range sm.QueueDepths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Fprintf(s.f, "%d,%d,%d,%d,%d,%d,%d\n",
		time.Since(s.t0).Milliseconds(), sm.TotalDepth, maxDepth,
		sm.Submitted, sm.Completed, sm.Degraded, sm.Batches)
}

func (s *csvSampler) stop() {
	close(s.done)
	s.wg.Wait()
	s.f.Close()
}
