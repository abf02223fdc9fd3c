// Package cluster is the multi-controller topology layer: it routes
// requests across N mcpool.Pool controllers (channels/sockets) behind
// one request plane, promotes the per-shard degradation of each
// controller (the paper's §IV-B epoch monitor) into a cluster-level
// admission policy, and survives node kill/restart through the
// internal/nvm sharded-journal recovery path.
//
// Routing stripes blocks across the nodes in runs of the per-node
// shard count — node = (block / shards) mod nodes — so a node's blocks
// cycle through all of its mcpool shards instead of aliasing onto a
// subset. Every data block has exactly one node, and within the node
// exactly one shard, whose private engine only that shard's worker
// touches; the discipline that makes the sharded pool sound extends
// unchanged to the cluster.
//
// Degradation composes in two stages. A node with a shard in a
// counterless epoch is already shedding counter/tree work per §IV-B
// (its Auto writes demote to counterless); the cluster layer watches
// that signal — plus node liveness — and once more than
// MaxDegradedFrac of the nodes are degraded or down, stops absorbing
// entirely:
// SubmitWait returns ErrOverloaded, which the HTTP request plane maps
// to 429. Draining (graceful shutdown) rejects with ErrDraining after
// fencing all admitted work through FlushBarrier.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/mcpool"
	"counterlight/internal/nvm"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// Submission errors, in decreasing severity of what the caller should
// do about them. All are shed-and-retry class — none indicates data
// loss.
var (
	// ErrClosed: the cluster has been closed; no retry will succeed.
	ErrClosed = errors.New("cluster: closed")
	// ErrDraining: graceful shutdown is fencing in-flight work; the
	// request plane maps this to 503 with Retry-After.
	ErrDraining = errors.New("cluster: draining")
	// ErrOverloaded: the admission policy rejected the request because
	// too many nodes are degraded or down (429).
	ErrOverloaded = errors.New("cluster: overloaded: too many nodes degraded")
	// ErrNodeDown: the owning node is killed; requests for its address
	// range fail until Restart (503).
	ErrNodeDown = errors.New("cluster: node down")
)

// Config sizes the cluster.
type Config struct {
	// Nodes is the controller count (default 2).
	Nodes int
	// MaxDegradedFrac is the admission knee: once MORE than this
	// fraction of the nodes is degraded (a shard in a counterless
	// epoch) or down, new submissions are rejected with ErrOverloaded. 0
	// means the default 0.5; negative disables cluster-level
	// admission entirely (per-node behavior is unchanged).
	MaxDegradedFrac float64
	// Node is the per-node pool template. Shards, queue depths,
	// Persist, and engine options apply to every node identically.
	// When Profile is set, each node incarnation gets its OWN profiler
	// so per-node latencies don't mix across controllers or restarts.
	Node mcpool.Config
	// Flight is recorded into by the cluster (kills, restarts,
	// recoveries) and attached to every node pool. Overrides
	// Node.Flight when set.
	Flight *flight.Ring
	// BreakRecovery is the teeth knob, test-only: Restart drops the
	// newest durable journal record of every shard before recovering,
	// so the restarted node silently loses its most recent durable
	// write — which a read-back oracle (check.ClusterReplay) must
	// catch as stale data.
	BreakRecovery bool
}

// node is one controller slot. pool is nil while the node is down;
// gen counts restarts (metrics for each incarnation are registered
// under a distinct gen label in the node's stable registry).
type node struct {
	id  int
	mu  sync.RWMutex
	gen int

	pool *mcpool.Pool
	reg  *obs.Registry

	// Chaos-verification state (meaningful when the node template has
	// Persist): baseline is the durable bytes the CURRENT incarnation
	// started from, segs the closed service segments (see Segment); the
	// last segment's Plogs are what the next Restart recovers from.
	baseline [][]byte
	segs     []Segment
}

// Segment is one uninterrupted service interval of a node: from pool
// creation (or restart) to Kill. Baseline is the durable per-shard
// journal state the interval's engines started from, and Plogs the
// durable journal bytes at the interval's end — Baseline's records
// followed by every op the interval applied. Verify replays each
// segment from its baseline and demands bit-identical responses.
type Segment struct {
	Baseline [][]byte
	Plogs    [][]byte
}

// Cluster routes requests across its nodes.
type Cluster struct {
	cfg   Config
	nodes []*node
	rec   *flight.Ring

	draining atomic.Bool
	closed   atomic.Bool

	admitted    obs.Counter // submissions past admission
	shed        obs.Counter // rejected by the admission policy
	downSubmits obs.Counter // routed to a dead node
	kills       obs.Counter
	restarts    obs.Counter
	nodesUp     obs.Gauge
	nodesDeg    obs.Gauge // degraded-or-down at last admission check
	reg         *obs.Registry
}

// New builds a cluster of cfg.Nodes freshly started pools.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.MaxDegradedFrac == 0 {
		cfg.MaxDegradedFrac = 0.5
	}
	if cfg.Flight == nil {
		cfg.Flight = cfg.Node.Flight
	}
	cfg.Node.Flight = cfg.Flight
	// Pin the shard count and engine options now: routing strides by
	// the shard count and verification rebuilds engines from the same
	// options, so the mcpool defaulting must happen once, here, not
	// invisibly inside each mcpool.New.
	if cfg.Node.Shards <= 0 {
		cfg.Node.Shards = mcpool.DefaultShards
	}
	if cfg.Node.Engine == (core.EngineOptions{}) {
		cfg.Node.Engine = core.DefaultEngineOptions()
	}
	c := &Cluster{cfg: cfg, rec: cfg.Flight, reg: obs.NewRegistry(), nodes: make([]*node, cfg.Nodes)}
	c.registerMetrics()
	for i := range c.nodes {
		n := &node{id: i, reg: obs.NewRegistry()}
		if _, err := c.startNode(n, nil); err != nil {
			for _, m := range c.nodes {
				if m != nil && m.pool != nil {
					m.pool.Close()
				}
			}
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = n
	}
	c.nodesUp.Set(int64(cfg.Nodes))
	return c, nil
}

// startNode builds node n's pool (a fresh incarnation), recovering
// from plogs when non-nil, and returns the recovery report. Caller
// holds n.mu or owns n exclusively.
func (c *Cluster) startNode(n *node, plogs [][]byte) ([]nvm.ShardRecovery, error) {
	ncfg := c.cfg.Node
	if ncfg.Profile != nil {
		ncfg.Profile = prof.New(aes.DefaultBackend())
	}
	pool, err := mcpool.New(ncfg)
	if err != nil {
		return nil, err
	}
	var rep []nvm.ShardRecovery
	if plogs != nil {
		if rep, err = nvm.RecoverShards(pool, plogs, c.rec); err != nil {
			pool.Close()
			return nil, err
		}
	}
	labels := []obs.Label{obs.L("node", strconv.Itoa(n.id)), obs.L("gen", strconv.Itoa(n.gen))}
	pool.RegisterMetrics(n.reg, labels...)
	n.pool = pool
	n.baseline = plogs
	return rep, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeOf returns the node that owns addr: runs of Node.Shards
// consecutive blocks go to each node in turn, so the cluster stripe
// composes with the pool's own block interleave instead of aliasing it.
func (c *Cluster) NodeOf(addr uint64) int {
	return int((addr / cipher.BlockSize / uint64(c.cfg.Node.Shards)) % uint64(len(c.nodes)))
}

// degraded reports whether node i is down or has a shard in a
// counterless epoch — the unit the admission policy counts.
func (n *node) degraded() bool {
	n.mu.RLock()
	p := n.pool
	n.mu.RUnlock()
	return p == nil || p.Shedding()
}

// Up reports whether node i is serving.
func (c *Cluster) Up(i int) bool {
	n := c.nodes[i]
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pool != nil
}

// admit applies the cluster-level §IV-B analogue: nodes with a shard
// in a counterless epoch are already shedding counter/tree work per
// request; once more than MaxDegradedFrac of the nodes are degraded or
// down, the cluster stops absorbing and rejects outright.
func (c *Cluster) admit() bool {
	frac := c.cfg.MaxDegradedFrac
	if frac < 0 {
		return true
	}
	deg := 0
	for _, n := range c.nodes {
		if n.degraded() {
			deg++
		}
	}
	c.nodesDeg.Set(int64(deg))
	return float64(deg) <= frac*float64(len(c.nodes))
}

// SubmitWait routes one request to its owning node and blocks for the
// response. Admission and liveness failures come back as Response.Err
// (ErrDraining, ErrOverloaded, ErrNodeDown, ErrClosed) — all
// shed-and-retry class, none fatal to the cluster.
func (c *Cluster) SubmitWait(req mcpool.Request) mcpool.Response {
	if c.closed.Load() {
		return mcpool.Response{Err: ErrClosed}
	}
	if c.draining.Load() {
		return mcpool.Response{Err: ErrDraining}
	}
	if !c.admit() {
		c.shed.Inc()
		return mcpool.Response{Err: ErrOverloaded}
	}
	n := c.nodes[c.NodeOf(req.Addr)]
	n.mu.RLock()
	pool := n.pool
	n.mu.RUnlock()
	if pool == nil {
		c.downSubmits.Inc()
		return mcpool.Response{Err: ErrNodeDown}
	}
	c.admitted.Inc()
	resp := pool.SubmitWait(req)
	if errors.Is(resp.Err, mcpool.ErrClosed) {
		// Lost the race with a concurrent Kill: the node died under the
		// request. Same contract as arriving after the kill.
		c.downSubmits.Inc()
		resp.Err = ErrNodeDown
	}
	return resp
}

// Read is shorthand for a read SubmitWait.
func (c *Cluster) Read(addr uint64) mcpool.Response {
	return c.SubmitWait(mcpool.Request{Kind: mcpool.OpRead, Addr: addr})
}

// Kill abruptly takes node i out of service, the soak/chaos mode's
// power-cut analogue: the pool closes (queued work drains, in-flight
// responses deliver), volatile state — memoization tables, profiler
// estimates — dies with it, and only the durable per-shard journal
// bytes survive for Restart to recover from. Requests routed to the
// node fail with ErrNodeDown until then. With Persist on, the
// incarnation's journal bytes are captured as a closed Segment first,
// so chaos verification can still replay the killed interval.
func (c *Cluster) Kill(i int) error {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pool == nil {
		return fmt.Errorf("cluster: node %d is already down", i)
	}
	pool := n.pool
	pool.Close()
	shards := pool.NumShards()
	seg := Segment{Baseline: n.baseline}
	if c.cfg.Node.Persist {
		seg.Plogs = make([][]byte, shards)
		for s := 0; s < shards; s++ {
			seg.Plogs[s] = pool.PersistedJournal(s)
		}
	}
	n.segs = append(n.segs, seg)
	n.pool = nil
	c.kills.Inc()
	c.nodesUp.Set(c.countUp())
	c.rec.Record(flight.KindCrash, -1, uint64(i), int64(len(n.segs)), int64(n.gen))
	return nil
}

// Restart brings a killed node back: a fresh pool (empty memoization,
// fresh profiler — exactly what survives a real power cycle) recovered
// from the durable journals the Kill captured, via the internal/nvm
// redo path. Returns the per-shard recovery report.
func (c *Cluster) Restart(i int) ([]nvm.ShardRecovery, error) {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pool != nil {
		return nil, fmt.Errorf("cluster: node %d is already up", i)
	}
	plogs := n.segs[len(n.segs)-1].Plogs // a down node was killed
	if c.cfg.BreakRecovery && plogs != nil {
		plogs = dropNewestRecords(plogs)
	}
	n.gen++
	rep, err := c.startNode(n, plogs)
	if err != nil {
		n.gen--
		return nil, fmt.Errorf("cluster: node %d restart: %w", i, err)
	}
	c.restarts.Inc()
	c.nodesUp.Set(c.countUp())
	c.rec.Record(flight.KindNote, -1, uint64(i), int64(n.gen), int64(len(n.segs)))
	return rep, nil
}

// dropNewestRecords is BreakRecovery's intentional bug: every shard's
// journal loses its newest durable record before recovery sees it.
func dropNewestRecords(plogs [][]byte) [][]byte {
	out := make([][]byte, len(plogs))
	for i, raw := range plogs {
		entries, _, err := mcpool.DecodeJournal(raw)
		if err != nil && err != mcpool.ErrTorn {
			out[i] = raw
			continue
		}
		var buf []byte
		for _, e := range entries[:max(0, len(entries)-1)] {
			buf = mcpool.AppendEntry(buf, &e)
		}
		out[i] = buf
	}
	return out
}

func (c *Cluster) countUp() int64 {
	var up int64
	for _, n := range c.nodes {
		if n.pool != nil {
			up++
		}
	}
	return up
}

// FlushBarrier fences every live node (mcpool.Pool.FlushBarrier),
// returning per-node per-shard durable seqs (nil entry for a node
// that is down — its durable state is whatever its Kill captured).
func (c *Cluster) FlushBarrier() [][]uint64 {
	out := make([][]uint64, len(c.nodes))
	for i, n := range c.nodes {
		n.mu.RLock()
		pool := n.pool
		n.mu.RUnlock()
		if pool != nil {
			out[i] = pool.FlushBarrier()
		}
	}
	return out
}

// Drain fences the cluster for graceful shutdown: new submissions are
// rejected with ErrDraining from this call on, while everything
// already admitted drains and is marked durable via FlushBarrier — so
// the per-shard journals cover every acknowledged request. Returns
// the per-node durable flush epochs. The monitoring/verification
// surfaces stay functional after Drain; Close tears the pools down.
func (c *Cluster) Drain() [][]uint64 {
	c.draining.Store(true)
	return c.FlushBarrier()
}

// Draining reports whether Drain has been called.
func (c *Cluster) Draining() bool { return c.draining.Load() }

// Close drains and stops every node. Safe to call more than once.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.draining.Store(true)
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.pool != nil {
			n.pool.Close()
		}
		n.mu.Unlock()
	}
}

// Aggregate sums every live node's pool aggregate plus the cluster
// frontend's own accounting.
type Aggregate struct {
	mcpool.Aggregate
	Admitted    uint64
	Shed        uint64 // rejected by the admission policy
	DownSubmits uint64 // routed to a dead node
	Kills       uint64
	Restarts    uint64
	NodesUp     int
}

// Aggregate snapshots the cluster-wide totals. Counters of killed
// incarnations are frozen in their node registries but not re-summed
// here: Aggregate answers "what is the cluster doing now".
func (c *Cluster) Aggregate() Aggregate {
	var a Aggregate
	for _, n := range c.nodes {
		n.mu.RLock()
		pool := n.pool
		n.mu.RUnlock()
		if pool == nil {
			continue
		}
		na := pool.Aggregate()
		a.NodesUp++
		a.EngineStats.Add(na.EngineStats)
		a.ModeSwitches += na.ModeSwitches
		a.DegradedWrites += na.DegradedWrites
		a.Submitted += na.Submitted
		a.Completed += na.Completed
		a.Batches += na.Batches
		a.Contention += na.Contention
		if na.MaxQueueDepth > a.MaxQueueDepth {
			a.MaxQueueDepth = na.MaxQueueDepth
		}
	}
	a.Admitted = c.admitted.Value()
	a.Shed = c.shed.Value()
	a.DownSubmits = c.downSubmits.Value()
	a.Kills = c.kills.Value()
	a.Restarts = c.restarts.Value()
	return a
}

// Sample reads the cluster's instantaneous load: the per-shard queue
// depths of every node concatenated in node order (a down node
// contributes zeros, keeping the column layout stable for CSV
// timelines), plus the summed counters.
func (c *Cluster) Sample() mcpool.Sample {
	var out mcpool.Sample
	shards := c.cfg.Node.Shards
	for _, n := range c.nodes {
		n.mu.RLock()
		pool := n.pool
		n.mu.RUnlock()
		if pool == nil {
			out.QueueDepths = append(out.QueueDepths, make([]int, shards)...)
			continue
		}
		s := pool.Sample()
		out.QueueDepths = append(out.QueueDepths, s.QueueDepths...)
		out.TotalDepth += s.TotalDepth
		out.Submitted += s.Submitted
		out.Completed += s.Completed
		out.Degraded += s.Degraded
		out.Batches += s.Batches
	}
	return out
}

// pools snapshots each node's current pool (nil while down).
func (c *Cluster) pools() []*mcpool.Pool {
	out := make([]*mcpool.Pool, len(c.nodes))
	for i, n := range c.nodes {
		n.mu.RLock()
		out[i] = n.pool
		n.mu.RUnlock()
	}
	return out
}

// CounterlessShards returns, per node, how many of its shards are now
// in a counterless epoch (0 for a node that is down).
func (c *Cluster) CounterlessShards() []int {
	out := make([]int, len(c.nodes))
	for i, p := range c.pools() {
		if p != nil {
			out[i] = p.CounterlessShards()
		}
	}
	return out
}

// CounterlessEpochs returns, per node, the epochs its current
// incarnation's shards ran counterless in whole or part (0 for a node
// that is down).
func (c *Cluster) CounterlessEpochs() []uint64 {
	out := make([]uint64, len(c.nodes))
	for i, p := range c.pools() {
		if p != nil {
			out[i] = p.CounterlessEpochs()
		}
	}
	return out
}

// SubmitP99 returns the worst live node's submit→wait p99 histogram
// reading in nanoseconds (0 when unprofiled) — the cluster-level SLO
// input. A restart gives its node a fresh profiler, so the reading
// covers each live incarnation only.
func (c *Cluster) SubmitP99() int64 {
	var worst int64
	for _, p := range c.pools() {
		if p != nil && p.Profiler() != nil {
			worst = max(worst, p.Profiler().SubmitWait.Quantile(0.99))
		}
	}
	return worst
}

// AttributionSummary merges per-op latency attribution across every
// live node's shards (nil when attribution is off).
func (c *Cluster) AttributionSummary() []obs.StageSummary {
	if !c.cfg.Node.Attribution {
		return nil
	}
	var as []*obs.Attributor
	for _, n := range c.nodes {
		n.mu.RLock()
		pool := n.pool
		n.mu.RUnlock()
		if pool == nil {
			continue
		}
		for s := 0; s < pool.NumShards(); s++ {
			as = append(as, pool.ShardAttribution(s))
		}
	}
	return obs.SummarizeAttributors(as)
}

// Registry returns the cluster's own registry (admission counters,
// node liveness gauges).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// NodeRegistry returns node i's registry. The registry is stable
// across restarts; each incarnation's pool metrics carry a gen label,
// so a killed incarnation's series stay visible, frozen at their
// final values.
func (c *Cluster) NodeRegistry(i int) *obs.Registry { return c.nodes[i].reg }

func (c *Cluster) registerMetrics() {
	c.reg.RegisterCounter("cluster_admitted_total", &c.admitted)
	c.reg.RegisterCounter("cluster_shed_total", &c.shed)
	c.reg.RegisterCounter("cluster_node_down_submits_total", &c.downSubmits)
	c.reg.RegisterCounter("cluster_kills_total", &c.kills)
	c.reg.RegisterCounter("cluster_restarts_total", &c.restarts)
	c.reg.RegisterGauge("cluster_nodes_up", &c.nodesUp)
	c.reg.RegisterGauge("cluster_degraded_nodes", &c.nodesDeg)
}
