package prof

import (
	"sync"
	"testing"

	"counterlight/internal/obs"
)

// TestProbeSampling pins the 1-in-N contract: every observation is
// counted, only one in N reads the clock and lands in the histogram.
func TestProbeSampling(t *testing.T) {
	p := NewProbe(8)
	starts := 0
	for i := 0; i < 64; i++ {
		if t0 := p.Start(); t0 != 0 {
			starts++
			p.Done(t0)
		}
	}
	if starts != 8 {
		t.Fatalf("sampled %d of 64 observations, want 8", starts)
	}
	if got := p.Count(); got != 64 {
		t.Fatalf("Count = %d, want 64", got)
	}
	if got := p.hist.Total(); got != 8 {
		t.Fatalf("histogram holds %d samples, want 8", got)
	}

	// Non-power-of-two periods round up; 1 samples everything.
	if got := NewProbe(5).mask + 1; got != 8 {
		t.Fatalf("NewProbe(5) samples 1 in %d, want 8", got)
	}
	if got := NewProbe(1).mask + 1; got != 1 {
		t.Fatalf("NewProbe(1) samples 1 in %d, want 1", got)
	}
}

// TestProbeNilSafe: a nil probe (and a nil profiler) must be usable as
// a disabled instrument from every call site.
func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	if t0 := p.Start(); t0 != 0 {
		t.Fatalf("nil probe Start = %d, want 0", t0)
	}
	p.Done(0)
	p.DoneN(0, 4)
	if p.Count() != 0 || p.Quantile(0.99) != 0 {
		t.Fatal("nil probe accessors must read zero")
	}

	var pf *Profiler
	pf.Register(obs.NewRegistry())
	(&Profiler{}).Register(obs.NewRegistry()) // nil probes register nothing
}

// TestProbeConcurrent hammers one probe from many goroutines: every
// observation is counted and every selected sample lands in the
// histogram (none dropped).
func TestProbeConcurrent(t *testing.T) {
	p := NewProbe(4)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.DoneN(p.Start(), 1+i%4)
			}
		}()
	}
	wg.Wait()
	if got := p.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	if got := p.hist.Total(); got != workers*per/4 {
		t.Fatalf("sampled %d != selected %d", got, workers*per/4)
	}
	if p50, p99 := p.Quantile(0.50), p.Quantile(0.99); p50 > p99 {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", p50, p99)
	}
}

// TestProbeNoAllocs gates the hot-path contract: Start/Done and
// Start/DoneN must not allocate, sampled or not.
func TestProbeNoAllocs(t *testing.T) {
	p := NewProbe(4)
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Done(p.Start())
	}); allocs != 0 {
		t.Errorf("Start/Done allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.DoneN(p.Start(), 8)
	}); allocs != 0 {
		t.Errorf("Start/DoneN allocates %.1f per op, want 0", allocs)
	}
}

// TestProfilerRegister pins the registry surface: exactly the three
// prof_*_ns histograms, backend-labelled, and nothing else.
func TestProfilerRegister(t *testing.T) {
	pf := New("stdlib")
	for i := 0; i < DefaultSubmitSample; i++ {
		pf.SubmitWait.Done(pf.SubmitWait.Start())
	}
	reg := obs.NewRegistry()
	pf.Register(reg, obs.L("node", "0"))
	var names []string
	for _, se := range reg.Snapshot().Series {
		if se.Kind != obs.KindHistogram || se.Labels["backend"] != "stdlib" || se.Labels["node"] != "0" {
			t.Errorf("series %s: kind %v labels %v", se.Name, se.Kind, se.Labels)
		}
		names = append(names, se.Name)
	}
	if len(names) != 3 {
		t.Fatalf("registered %v, want the three prof_*_ns histograms", names)
	}
	if se, ok := reg.Snapshot().Get("prof_submit_wait_ns", obs.L("node", "0"), obs.L("backend", "stdlib")); !ok || se.Value != 1 {
		t.Fatalf("prof_submit_wait_ns: found %v, count %v, want 1", ok, se.Value)
	}
}
