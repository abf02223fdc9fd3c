package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"counterlight/internal/cipher"
	"counterlight/internal/core"
	"counterlight/internal/crypto/keccak"
	"counterlight/internal/crypto/mix"
	"counterlight/internal/ctrblock"
	"counterlight/internal/ecc"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, layer string
}

// layerMetrics lists every per-layer metric, in table order. Every
// traced run reports all of them; a metric whose layer is not on the
// workload's path reads 0 (see README.md).
var layerMetrics = []layerMetric{
	{"mcpool.queue_us", "us", "mcpool"},
	{"mcpool.batch_us", "us", "mcpool"},
	{"mcpool.service_us", "us", "mcpool"},
	{"mcpool.writeback_us", "us", "mcpool"},
	{"mcpool.ops_per_batch", "ops/batch", "mcpool"},
	{"mcpool.contention_frac", "ratio", "mcpool"},
	{"mcpool.flush_barrier_us", "us", "mcpool"},
	{"mcpool.journal_bytes_per_op", "B/op", "mcpool"},
	{"engine.read_ns", "ns", "core"},
	{"engine.write_counter_ns", "ns", "core"},
	{"engine.counter_writes", "count", "core"},
	{"engine.counterless_writes", "count", "core"},
	{"engine.memo_hit_frac", "ratio", "memoize"},
	{"cipher.pad_ns", "ns", "cipher"},
	{"cipher.pad_batch_ns", "ns", "cipher"},
	{"ecc.verify_ns", "ns", "ecc"},
	{"ctrblock.verify_ns", "ns", "ctrblock"},
	{"ctrblock.increment_ns", "ns", "ctrblock"},
	{"keccak.mac64_528b_ns", "ns", "crypto/keccak"},
	{"keccak.mac64_48b_ns", "ns", "crypto/keccak"},
	{"go.alloc_bytes_per_op", "B/op", "go runtime"},
	{"go.gc_cpu_frac", "ratio", "go runtime"},
	{"sim.host_us_per_epoch_p50", "us", "core (simulator)"},
	{"sim.host_us_per_epoch_p90", "us", "core (simulator)"},
	{"sim.host_ns_per_llc_miss", "ns", "core (simulator)"},
	{"sim.instructions", "count", "cache, dram, epoch (modelled)"},
	{"sim.llc_misses", "count", "cache, dram (modelled)"},
	{"sim.counterless_wb_frac", "ratio", "epoch (modelled)"},
	{"sim.bus_util", "ratio", "dram (modelled)"},
	{"sim.memo_hit_rate", "ratio", "memoize (modelled)"},
	{"trace.overhead_frac", "ratio", "benchmark"},
}

// layerResult starts a traced run's result with every per-layer
// metric at 0.
func layerResult() result {
	res := result{Metrics: metrics{}}
	for _, lm := range layerMetrics {
		metrics(res.Metrics).set(lm.name, lm.unit, 0)
	}
	return res
}

// microBatch is how many calls one span covers when a layer's call is
// too short to time one by one.
const microBatch = 64

// Replay sizes: enough calls for stable medians, few enough that the
// traced run stays well inside its time limit.
const (
	replayCtrWrites = 8192
	replayPads      = 8192
	replayMACs      = 4096
)

// traceService is the traced run of a service workload: one untraced
// repetition (the overhead reference, which also checks recovery), one
// traced repetition with mcpool's attribution on and a span per
// request, then replays of the workload's inputs against each lower
// layer's public functions on bare instances.
func traceService(o options, w serviceWorkload) (result, error) {
	res := layerResult()
	m := metrics(res.Metrics)
	st := generate(w.spec, o.seed)
	var plain, traced serviceRep
	if err := runServiceRep(w, &st, &plain, nil, w.durable); err != nil {
		return res, err
	}
	tr := newSpanLog()
	endRun := tr.phase("run." + o.workload)
	endPool := tr.phase("phase.pool")
	if err := runServiceRep(w, &st, &traced, tr, false); err != nil {
		return res, err
	}
	endPool()
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed

	ops := float64(len(st.ops) * w.passes)
	untracedRate := ops / sum(plain.elapsed).Seconds()
	tracedRate := ops / sum(traced.elapsed).Seconds()
	m.set("trace.overhead_frac", "ratio", 1-tracedRate/untracedRate)
	m.set("go.alloc_bytes_per_op", "B/op", float64(plain.rt.allocBytes)/ops)
	m.set("go.gc_cpu_frac", "ratio", plain.rt.gcFrac())

	stageNs := map[string]obs.StageSummary{}
	for _, s := range traced.attrib {
		stageNs[s.Stage] = s
	}
	for _, stage := range mcpool.StageNames {
		m.set("mcpool."+stage+"_us", "us", float64(stageNs[stage].P50Ns)/1e3)
	}
	agg := traced.agg
	if agg.Batches > 0 {
		m.set("mcpool.ops_per_batch", "ops/batch", float64(agg.Completed)/float64(agg.Batches))
		m.set("mcpool.contention_frac", "ratio", float64(agg.Contention)/float64(agg.Batches))
	}
	if len(traced.barriers) > 0 {
		us := make([]float64, len(traced.barriers))
		for i, d := range traced.barriers {
			us[i] = float64(d.Nanoseconds()) / 1e3
		}
		m.set("mcpool.flush_barrier_us", "us", median(us))
	}
	requests := len(st.fill) + len(st.ops)*w.passes
	m.set("mcpool.journal_bytes_per_op", "B/op", float64(traced.journalBytes)/float64(requests))
	m.set("engine.counter_writes", "count", float64(agg.CounterModeWrites))
	m.set("engine.counterless_writes", "count", float64(agg.CounterlessWrites))
	if n := agg.MemoHits + agg.MemoMisses; n > 0 {
		m.set("engine.memo_hit_frac", "ratio", float64(agg.MemoHits)/float64(n))
	}

	// The four attribution stages must account for the traced request
	// latency exactly: Σ stage means = the end-to-end mean (up to one
	// ns of integer rounding per stage), every request in every stage.
	identity := checkStageIdentity(traced.attrib, requests)
	res.Attempted++
	if identity != nil {
		res.Failed++
		fmt.Fprintf(o.log, "stage identity: %v\n", identity)
	}

	eng, err := replayEngine(tr, &st, &res)
	if err != nil {
		return res, err
	}
	m.set("engine.read_ns", "ns", median(tr.perCall("engine.read")))
	m.set("engine.write_counter_ns", "ns", median(tr.perCall("engine.write_counter")))
	levels, err := replayCtrblock(tr, &st)
	if err != nil {
		return res, err
	}
	m.set("ctrblock.verify_ns", "ns", median(tr.perCall("ctrblock.verify")))
	m.set("ctrblock.increment_ns", "ns", median(tr.perCall("ctrblock.increment")))
	replayCipher(tr, &st, eng)
	m.set("cipher.pad_ns", "ns", median(tr.perCall("cipher.pad")))
	m.set("cipher.pad_batch_ns", "ns", median(tr.perCall("cipher.pad_batch")))
	res.Attempted += len(st.final)
	res.Failed += replayECC(tr, eng, len(st.final))
	m.set("ecc.verify_ns", "ns", median(tr.perCall("ecc.verify")))
	replayKeccak(tr, o.seed)
	m.set("keccak.mac64_528b_ns", "ns", median(tr.perCall("keccak.mac64_528b")))
	m.set("keccak.mac64_48b_ns", "ns", median(tr.perCall("keccak.mac64_48b")))
	endRun()

	res.Correct = res.Failed == 0
	mean := func(name string) float64 { return float64(stageNs[name].MeanNs) }
	notes := []string{
		fmt.Sprintf("aes backend %s; %d requests traced, untraced %.0f ops/s, traced %.0f ops/s",
			eng.CipherBackend(), requests, untracedRate, tracedRate),
		fmt.Sprintf("attribution means (ns): queue %.0f + batch %.0f + service %.0f + writeback %.0f = total %.0f (identity %s)",
			mean("queue"), mean("batch"), mean("service"), mean("writeback"), mean("total"), okText(identity)),
		fmt.Sprintf("request mean measured from outside (Submit to Wait): %.0f ns", requestMean(&traced)),
	}
	notes = append(notes, selfTimes(m, levels)...)
	return res, writeTrace(o, tr, res, notes)
}

// checkStageIdentity verifies the attribution identity: every stage
// saw every request, and the stage means add up to the total mean.
func checkStageIdentity(rows []obs.StageSummary, requests int) error {
	if len(rows) != len(mcpool.StageNames)+1 {
		return fmt.Errorf("attribution summary has %d rows, want %d", len(rows), len(mcpool.StageNames)+1)
	}
	total := rows[len(rows)-1]
	var stages int64
	for _, s := range rows[:len(rows)-1] {
		if s.Count != total.Count {
			return fmt.Errorf("stage %s saw %d requests, total %d", s.Stage, s.Count, total.Count)
		}
		stages += s.MeanNs
	}
	if total.Count != uint64(requests) {
		return fmt.Errorf("%d requests attributed, %d submitted", total.Count, requests)
	}
	if d := stages - total.MeanNs; d < -int64(len(rows)) || d > int64(len(rows)) {
		return fmt.Errorf("stage means sum to %d ns, total mean %d ns", stages, total.MeanNs)
	}
	return nil
}

func okText(err error) string {
	if err != nil {
		return "FAILED: " + err.Error()
	}
	return "holds"
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// requestMean is the mean latency (ns) of every request of r, fill
// and measured passes alike, as the window timed it.
func requestMean(r *serviceRep) float64 {
	var total float64
	n := 0
	for _, lat := range append([][]int64{r.fillLat}, r.lat...) {
		for _, v := range lat {
			total += float64(v)
		}
		n += len(lat)
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// replayEngine replays the whole stream (fill, then measured ops) on a
// bare core.Engine from one goroutine, a span per call, and checks
// every read. It returns the engine in its final state.
func replayEngine(tr *spanLog, st *stream, res *result) (*core.Engine, error) {
	defer tr.phase("phase.engine")()
	opts := core.DefaultEngineOptions()
	if need := uint64(len(st.final)) * 64; need > opts.MemSize {
		opts.MemSize = need
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	for _, ops := range [][]op{st.fill, st.ops} {
		for _, o := range ops {
			req := st.request(o)
			var resp mcpool.Response
			switch {
			case o.kind == mcpool.OpRead:
				sp := tr.begin("engine.read", tr.root())
				resp.Plain, _, resp.Err = eng.Read(req.Addr)
				tr.end(sp)
			case o.mode == epoch.CounterMode:
				sp := tr.begin("engine.write_counter", tr.root())
				resp.Err = eng.Write(req.Addr, req.Data, req.Mode)
				tr.end(sp)
			default:
				sp := tr.begin("engine.write_counterless", tr.root())
				resp.Err = eng.Write(req.Addr, req.Data, req.Mode)
				tr.end(sp)
			}
			res.Attempted++
			if !st.ok(o, resp) {
				res.Failed++
			}
		}
	}
	return eng, nil
}

// replayCtrblock replays the stream's first counter-mode write
// addresses on a bare counter store: the tree walk every counter-mode
// write makes, VerifyCounter then Increment. It returns the store's
// level count (counter blocks plus tree levels).
func replayCtrblock(tr *spanLog, st *stream) (int, error) {
	defer tr.phase("phase.ctrblock")()
	memSize := core.DefaultEngineOptions().MemSize
	if need := uint64(len(st.final)) * 64; need > memSize {
		memSize = need
	}
	s, err := ctrblock.New(memSize, 64)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ops := range [][]op{st.fill, st.ops} {
		for _, o := range ops {
			if o.kind != mcpool.OpWrite || o.mode != epoch.CounterMode || n == replayCtrWrites {
				continue
			}
			n++
			addr := uint64(o.block) * 64
			sp := tr.begin("ctrblock.verify", tr.root())
			ok := s.VerifyCounter(addr)
			tr.end(sp)
			if !ok {
				return 0, fmt.Errorf("ctrblock replay: verification failed at %#x", addr)
			}
			sp = tr.begin("ctrblock.increment", tr.root())
			err := s.Increment(addr, s.Counter(addr)+1)
			tr.end(sp)
			if err != nil {
				return 0, fmt.Errorf("ctrblock replay: %w", err)
			}
		}
	}
	return s.Levels(), nil
}

// replayCipher derives the counter-mode pads of the read stream's
// (counter, address) pairs, as stored in eng: once per call through
// PadWithMAC, and in batches of window through PadBatch.
func replayCipher(tr *spanLog, st *stream, eng *core.Engine) {
	defer tr.phase("phase.cipher")()
	var ctrs, addrs []uint64
	for _, o := range st.ops {
		if o.kind != mcpool.OpRead || len(ctrs) == replayPads {
			continue
		}
		addr := uint64(o.block) * 64
		cw, _ := eng.Snapshot(addr)
		if meta := cw.DecodeMeta(); meta <= ctrblock.CounterMax {
			ctrs = append(ctrs, meta)
			addrs = append(addrs, addr)
		}
	}
	cm := eng.CounterCipher()
	for i := 0; i+microBatch <= len(ctrs); i += microBatch {
		sp := tr.beginN("cipher.pad", tr.root(), microBatch)
		for j := i; j < i+microBatch; j++ {
			cm.PadWithMAC(ctrs[j], addrs[j])
		}
		tr.end(sp)
	}
	pads := make([]cipher.Block, window)
	otps := make([]mix.Word, window)
	var scratch cipher.BatchScratch
	for i := 0; i+window <= len(ctrs); i += window {
		sp := tr.beginN("cipher.pad_batch", tr.root(), window)
		cm.PadBatch(ctrs[i:i+window], addrs[i:i+window], pads, otps, &scratch)
		tr.end(sp)
	}
}

// replayECC runs ecc.Verify over the first blocks stored codewords.
// Each block's MAC is recomputed through the engine's ciphers before
// timing starts, so the spans cover only ecc's own work: decode the
// metadata from the parity, reassemble the block, compare. It returns
// how many codewords failed to verify.
func replayECC(tr *spanLog, eng *core.Engine, blocks int) int {
	defer tr.phase("phase.ecc")()
	cws := make([]ecc.CodeWord, blocks)
	macs := make([]uint64, blocks)
	cm := eng.CounterCipher()
	for b := range cws {
		addr := uint64(b) * 64
		cws[b], _ = eng.Snapshot(addr)
		meta := cws[b].DecodeMeta()
		ct := cws[b].Block()
		if meta <= ctrblock.CounterMax {
			pad, otp := cm.PadWithMAC(meta, addr)
			macs[b] = cm.MACFromOTP(otp, ct.XOR(pad), uint32(meta))
		} else {
			macs[b] = eng.CounterlessCipher(eng.VMOf(addr)).MAC(addr, ct, uint32(meta))
		}
	}
	failed := 0
	for i := 0; i+microBatch <= blocks; i += microBatch {
		sp := tr.beginN("ecc.verify", tr.root(), microBatch)
		for b := i; b < i+microBatch; b++ {
			if _, ok := ecc.Verify(cws[b], func(cipher.Block, uint64) uint64 { return macs[b] }); !ok {
				failed++
			}
		}
		tr.end(sp)
	}
	return failed
}

// replayKeccak times MAC64 on the two input shapes ctrblock's node
// MAC builds: a counter block (16-byte header + 128 counters = 528
// bytes) and a tree node (16 + 8 entries = 48 bytes).
func replayKeccak(tr *spanLog, seed int64) {
	defer tr.phase("phase.keccak")()
	rng := rand.New(rand.NewSource(seed))
	key := []byte("ctrblock-integrity-key")
	for _, shape := range []struct {
		name string
		size int
	}{{"keccak.mac64_528b", 16 + 4*ctrblock.CountersPerBlock}, {"keccak.mac64_48b", 16 + 4*ctrblock.TreeArity}} {
		buf := make([]byte, shape.size)
		rng.Read(buf)
		var sink uint64
		for i := 0; i < replayMACs; i += microBatch {
			sp := tr.beginN(shape.name, tr.root(), microBatch)
			for j := 0; j < microBatch; j++ {
				buf[0] = byte(j)
				sink ^= keccak.MAC64(key, buf)
			}
			tr.end(sp)
		}
		macSink ^= sink
	}
}

// macSink keeps the MAC64 results live so the calls are not removed.
var macSink uint64

// selfTimes derives each layer's self time from the nesting of the
// replayed calls: a counter-mode engine write walks the tree (verify +
// increment), and each tree walk computes one 528-byte and levels-1
// 48-byte MAC64s.
func selfTimes(m metrics, levels int) []string {
	v := func(name string) float64 { return m[name].Value }
	macs := v("keccak.mac64_528b_ns") + float64(levels-1)*v("keccak.mac64_48b_ns")
	return []string{
		"self time from nesting (ns): keccak ⊂ ctrblock ⊂ engine",
		fmt.Sprintf("  ctrblock.verify    %10.0f = %.0f − %.0f keccak (1×528B + %d×48B)", v("ctrblock.verify_ns")-macs, v("ctrblock.verify_ns"), macs, levels-1),
		fmt.Sprintf("  ctrblock.increment %10.0f = %.0f − %.0f keccak", v("ctrblock.increment_ns")-macs, v("ctrblock.increment_ns"), macs),
		fmt.Sprintf("  engine.write       %10.0f = %.0f − ctrblock verify − increment", v("engine.write_counter_ns")-v("ctrblock.verify_ns")-v("ctrblock.increment_ns"), v("engine.write_counter_ns")),
		fmt.Sprintf("  engine.read        %10.0f = %.0f − cipher.pad − ecc.verify", v("engine.read_ns")-v("cipher.pad_ns")-v("ecc.verify_ns"), v("engine.read_ns")),
	}
}

// writeTrace writes the traced run's spans and per-layer table under
// o.outDir/<workload>, and prints the table to the log.
func writeTrace(o options, tr *spanLog, res result, notes []string) error {
	dir := filepath.Join(o.outDir, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, "spans.csv.gz")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# per-layer metrics, workload %s, seed %d\n", o.workload, o.seed)
	fmt.Fprintf(&b, "%-30s %-30s %16s %s\n", "metric", "layer", "value", "unit")
	for _, lm := range layerMetrics {
		fmt.Fprintf(&b, "%-30s %-30s %16.4f %s\n", lm.name, lm.layer, res.Metrics[lm.name].Value, lm.unit)
	}
	for _, n := range notes {
		fmt.Fprintln(&b, n)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), js, 0o644); err != nil {
		return err
	}
	fmt.Fprint(o.log, b.String())
	fmt.Fprintf(o.log, "trace files in %s (%d spans)\n", dir, len(tr.spans))
	return nil
}

// traceSim is the traced run of sim_canneal: one untraced repetition
// (the overhead reference) and one traced repetition with a span per
// simulated epoch. Both must produce the same outputs (and the golden
// outputs on the default seed).
func traceSim(o options) (result, error) {
	res := layerResult()
	m := metrics(res.Metrics)
	golden, err := loadGolden(o.golden, o.seed)
	if err != nil {
		return res, err
	}
	plain, err := runSimRep(o.seed, nil)
	if err != nil {
		return res, err
	}
	tr := newSpanLog()
	endRun := tr.phase("run." + o.workload)
	traced, err := runSimRep(o.seed, tr)
	if err != nil {
		return res, err
	}
	endRun()
	for _, r := range []simRep{plain, traced} {
		res.Attempted += len(r.clock.hostNs)
		out := outputsOf(r.res)
		if out != outputsOf(plain.res) || (golden != nil && out != *golden) {
			res.Failed += len(r.clock.hostNs)
		}
	}
	epochs := float64(len(traced.clock.hostNs))
	us := make([]float64, len(traced.clock.hostNs))
	for i, ns := range traced.clock.hostNs {
		us[i] = float64(ns) / 1e3
	}
	m.set("sim.host_us_per_epoch_p50", "us", percentile(us, 0.5))
	m.set("sim.host_us_per_epoch_p90", "us", percentile(us, 0.9))
	m.set("sim.host_ns_per_llc_miss", "ns", float64(traced.elapsed.Nanoseconds())/float64(traced.res.LLCMisses))
	out := outputsOf(traced.res)
	m.set("sim.instructions", "count", float64(out.Instructions))
	m.set("sim.llc_misses", "count", float64(out.LLCMisses))
	m.set("sim.counterless_wb_frac", "ratio", traced.res.CounterlessWBFraction())
	m.set("sim.bus_util", "ratio", out.BusUtil)
	m.set("sim.memo_hit_rate", "ratio", out.MemoHitRate)
	m.set("go.alloc_bytes_per_op", "B/op", float64(plain.rt.allocBytes)/epochs)
	m.set("go.gc_cpu_frac", "ratio", plain.rt.gcFrac())
	untraced := float64(len(plain.clock.hostNs)) / plain.elapsed.Seconds()
	m.set("trace.overhead_frac", "ratio", 1-(epochs/traced.elapsed.Seconds())/untraced)
	res.Correct = res.Failed == 0
	notes := []string{fmt.Sprintf("untraced %.2f epochs/s, traced %.2f epochs/s, %s",
		untraced, epochs/traced.elapsed.Seconds(), time.Duration(traced.elapsed).Round(time.Millisecond))}
	return res, writeTrace(o, tr, res, notes)
}
