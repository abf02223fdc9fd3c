package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// spanLog keeps every span of a traced run in memory until the run
// ends. A span covers one call (or one batch of calls) the benchmark
// makes into a layer; parent links nest calls inside the phase that
// made them. A nil *spanLog records nothing, so untraced code paths
// pass nil and pay one nil check per call.
type spanLog struct {
	t0    time.Time
	names []string
	ids   map[string]uint16
	spans []span
	cur   int32 // the open phase new spans nest under (-1: none)
}

type span struct {
	parent     int32
	name       uint16
	calls      uint32 // calls the span covers (batched micro-layers)
	start, end int64  // ns since the log began
}

// requestSpan names a service request, from Submit until its Wait.
const requestSpan = "mcpool.request"

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), ids: map[string]uint16{}, cur: -1}
}

func (l *spanLog) id(name string) uint16 {
	id, ok := l.ids[name]
	if !ok {
		id = uint16(len(l.names))
		l.ids[name] = id
		l.names = append(l.names, name)
	}
	return id
}

// root returns the open phase, the parent of spans begun now.
func (l *spanLog) root() int32 {
	if l == nil {
		return -1
	}
	return l.cur
}

// begin opens a span covering one call and returns its index.
func (l *spanLog) begin(name string, parent int32) int32 {
	return l.beginN(name, parent, 1)
}

// beginN opens a span covering calls calls.
func (l *spanLog) beginN(name string, parent int32, calls int) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{parent: parent, name: l.id(name), calls: uint32(calls), start: int64(time.Since(l.t0))})
	return int32(len(l.spans) - 1)
}

// end closes span i.
func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = int64(time.Since(l.t0))
}

// phase opens a span that later spans nest under until the returned
// function closes it.
func (l *spanLog) phase(name string) func() {
	if l == nil {
		return func() {}
	}
	i := l.begin(name, l.cur)
	prev := l.cur
	l.cur = i
	return func() { l.end(i); l.cur = prev }
}

// perCall returns the per-call duration (ns) of every span named name.
func (l *spanLog) perCall(name string) []float64 {
	id, ok := l.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range l.spans {
		if s.name == id && s.end > 0 {
			out = append(out, float64(s.end-s.start)/float64(s.calls))
		}
	}
	return out
}

// write stores the spans as gzip-compressed CSV: one line per span
// with its index, parent, name, calls covered, and start/end in ns.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,name,calls,start_ns,end_ns")
	for i, s := range l.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d\n", i, s.parent, l.names[s.name], s.calls, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// accounting.
type runtimeSample struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

// runtimeDelta is the runtime activity between two samples.
type runtimeDelta struct {
	allocBytes    uint64
	gcCPU, allCPU float64 // CPU seconds, as runtime/metrics estimates them
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return runtimeSample{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

func (s runtimeSample) since(before runtimeSample) runtimeDelta {
	return runtimeDelta{
		allocBytes: s.totalAlloc - before.totalAlloc,
		gcCPU:      s.gcCPU - before.gcCPU,
		allCPU:     s.allCPU - before.allCPU,
	}
}

// gcFrac is the share of CPU time the GC used.
func (d runtimeDelta) gcFrac() float64 {
	if d.allCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.allCPU
}
