package main

import (
	"math"
	"runtime"
	"sort"

	"counterlight/internal/mcpool"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q·n samples at or below it. It
// sorts a copy, so xs is left untouched. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// splitByKind partitions per-op latencies (ns) by the op's kind,
// returning them in µs: kinds[i] labels lat[i].
func splitByKind(lat []int64, kinds []mcpool.OpKind) map[mcpool.OpKind][]float64 {
	out := make(map[mcpool.OpKind][]float64)
	for i, ns := range lat {
		out[kinds[i]] = append(out[kinds[i]], float64(ns)/1e3)
	}
	return out
}

// liveHeapMB forces a full collection and returns the live heap in
// MiB. Callers read it while the structure being measured is still
// reachable, so its memory counts and only garbage is excluded.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
