package main

import (
	"fmt"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/crypto/aes"
	"counterlight/internal/mcpool"
	"counterlight/internal/nvm"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// serviceWorkload is a workload run against one node of the service:
// the pool exactly as clserve builds it.
type serviceWorkload struct {
	spec serviceSpec
	// durable turns on Journal+Persist (as clserve -verify does) and a
	// FlushBarrier after every barrierEvery submitted ops.
	durable      bool
	barrierEvery int
	// passes is how many times a repetition replays the measured ops on
	// its node; only a read-only stream, whose expected outputs do not
	// depend on earlier passes, may have more than one.
	passes int
}

// The service workloads. Op counts are fixed per repetition, so memory
// that grows with ops (the durable journals) is comparable across runs
// whatever the host speed.
var (
	readWide = serviceWorkload{
		spec:   serviceSpec{blocks: 32768, ops: 131072, readFrac: 1},
		passes: 5,
	}
	writeDurable = serviceWorkload{
		spec:         serviceSpec{blocks: 8192, ops: 16384, readFrac: 0.5, counterless: 0.02},
		durable:      true,
		barrierEvery: 512,
		passes:       1,
	}
)

// newNode builds one service node the way clserve does: 8 shards,
// queue depth 256, batches of 32, the profiler and a 4096-slot flight
// ring on, default engine options on the process-default AES backend.
func newNode(blocks int, durable, attribution bool) (*mcpool.Pool, error) {
	opts := core.DefaultEngineOptions()
	if need := uint64(blocks) * 64; need > opts.MemSize {
		opts.MemSize = need
	}
	return mcpool.New(mcpool.Config{
		Shards:      8,
		QueueDepth:  256,
		BatchMax:    32,
		Profile:     prof.New(aes.DefaultBackend()),
		Flight:      flight.NewRing(4096),
		Journal:     durable,
		Persist:     durable,
		Attribution: attribution,
		Engine:      opts,
	})
}

// serviceRep is one repetition: a fresh node, the fill, the measured
// ops, and the checks.
type serviceRep struct {
	setup    time.Duration   // build the node and write the working set
	elapsed  []time.Duration // per pass: first measured Submit to last Wait
	fillLat  []int64         // ns per fill write, indexed like stream.fill
	lat      [][]int64       // per pass: ns per measured op, indexed like stream.ops
	barriers []time.Duration
	rt       runtimeDelta // Go runtime activity during the measured ops
	heapMB   float64      // live heap the open node adds, after a full GC

	attempted, failed int
	agg               mcpool.Aggregate
	attrib            []obs.StageSummary // traced repetitions only
	journalBytes      int                // Σ persisted journal bytes (durable only)
}

// runServiceRep runs one repetition of w over st into r, reusing r's
// latency buffers. A non-nil tr turns on mcpool's latency attribution
// and records a span per request. checkRecovery additionally rebuilds
// a fresh node from the persisted journals and reads back every fenced
// write (durable workloads only).
func runServiceRep(w serviceWorkload, st *stream, r *serviceRep, tr *spanLog, checkRecovery bool) error {
	lat := r.lat
	for len(lat) < w.passes {
		lat = append(lat, nil)
	}
	for i := range lat {
		lat[i] = grow(lat[i], len(st.ops))
	}
	*r = serviceRep{fillLat: grow(r.fillLat, len(st.fill)), lat: lat[:w.passes]}
	count := func(o op, resp mcpool.Response) {
		r.attempted++
		if !st.ok(o, resp) {
			r.failed++
		}
	}
	base := liveHeapMB()
	t0 := time.Now()
	p, err := newNode(w.spec.blocks, w.durable, tr != nil)
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := runWindow(poolSubmit(p), st, st.fill, fence{}, tr, r.fillLat,
		func(i int, resp mcpool.Response) { count(st.fill[i], resp) }); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	r.setup = time.Since(t0)

	var f fence
	if w.durable {
		f = fence{every: w.barrierEvery, call: func() {
			t := time.Now()
			p.FlushBarrier()
			r.barriers = append(r.barriers, time.Since(t))
		}}
	}
	before := readRuntime()
	for _, lat := range r.lat {
		elapsed, err := runWindow(poolSubmit(p), st, st.ops, f, tr, lat,
			func(i int, resp mcpool.Response) { count(st.ops[i], resp) })
		if err != nil {
			return fmt.Errorf("measured ops: %w", err)
		}
		r.elapsed = append(r.elapsed, elapsed)
	}
	r.rt = readRuntime().since(before)
	if w.durable {
		p.FlushBarrier()
	}
	r.heapMB = liveHeapMB() - base
	r.agg = p.Aggregate()
	r.attrib = p.AttributionSummary()
	if !w.durable {
		return nil
	}
	journals := make([][]byte, p.NumShards())
	for i := range journals {
		journals[i] = p.PersistedJournal(i)
		r.journalBytes += len(journals[i])
	}
	if checkRecovery {
		if err := recoverAndReadBack(w, st, journals, count); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	return nil
}

// grow returns buf resized to n, reallocating only when too small.
func grow(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// recoverAndReadBack rebuilds a fresh node from the persisted journal
// bytes with nvm.RecoverShards and reads back every block through
// count: after the final FlushBarrier every write is fenced, so each
// block must hold the last payload the stream wrote to it.
func recoverAndReadBack(w serviceWorkload, st *stream, journals [][]byte, count func(op, mcpool.Response)) error {
	p, err := newNode(w.spec.blocks, w.durable, false)
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := nvm.RecoverShards(p, journals, nil); err != nil {
		return err
	}
	reads := make([]op, len(st.final))
	for b := range reads {
		reads[b] = op{kind: mcpool.OpRead, block: uint32(b), data: st.final[b]}
	}
	_, err = runWindow(poolSubmit(p), st, reads, fence{}, nil, make([]int64, len(reads)),
		func(i int, resp mcpool.Response) { count(reads[i], resp) })
	return err
}

// runService runs repetitions of w until the budget is spent (at least
// minReps) and reports medians: of the repetitions' set-up times, heap
// readings and side-op percentiles, and of every pass's throughput and
// main-op percentiles.
func runService(o options, w serviceWorkload) (result, error) {
	if o.traced {
		return traceService(o, w)
	}
	st := generate(w.spec, o.seed)
	res := result{Metrics: metrics{}}
	var r serviceRep
	var setup, opsPerS, heap, mainP50, mainP90, sideP50, sideP90 []float64
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < o.budget; rep++ {
		t := time.Now()
		if err := runServiceRep(w, &st, &r, nil, rep == 0); err != nil {
			return res, err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapMB)
		for pass, lat := range r.lat {
			opsPerS = append(opsPerS, float64(len(st.ops))/r.elapsed[pass].Seconds())
			main, side := w.opLatencies(&st, lat, r.fillLat)
			mainP50 = append(mainP50, percentile(main, 0.5))
			mainP90 = append(mainP90, percentile(main, 0.9))
			if pass == 0 {
				sideP50 = append(sideP50, percentile(side, 0.5))
				sideP90 = append(sideP90, percentile(side, 0.9))
			}
		}
		fmt.Fprintf(o.log, "rep %d: setup %.3fs, %.0f ops/s, main p50 %.1fµs p90 %.1fµs, side p50 %.1fµs p90 %.1fµs, heap %.1f MiB, rep %.2fs\n",
			rep, r.setup.Seconds(), opsPerS[len(opsPerS)-1], mainP50[len(mainP50)-1], mainP90[len(mainP90)-1],
			sideP50[rep], sideP90[rep], r.heapMB, time.Since(t).Seconds())
	}
	m := metrics(res.Metrics)
	m.set("setup_s", "s", median(setup))
	m.set("ops_per_s", "ops/s", median(opsPerS))
	m.set("live_heap_mb", "MiB", median(heap))
	m.set("main_p50_us", "us", median(mainP50))
	m.set("main_p90_us", "us", median(mainP90))
	m.set("side_p50_us", "us", median(sideP50))
	m.set("side_p90_us", "us", median(sideP90))
	res.Correct = res.Failed == 0
	return res, nil
}

// opLatencies splits one pass's latencies (µs) into the workload's
// main and side op types. read_wide: main is a measured read, side a
// fill write. write_durable: main is a measured write, side a measured
// read.
func (w serviceWorkload) opLatencies(st *stream, lat, fillLat []int64) (main, side []float64) {
	kinds := make([]mcpool.OpKind, len(st.ops))
	for i, o := range st.ops {
		kinds[i] = o.kind
	}
	byKind := splitByKind(lat, kinds)
	if w.spec.readFrac == 1 {
		fill := make([]float64, len(fillLat))
		for i, ns := range fillLat {
			fill[i] = float64(ns) / 1e3
		}
		return byKind[mcpool.OpRead], fill
	}
	return byKind[mcpool.OpWrite], byKind[mcpool.OpRead]
}
