package obs

import (
	"sync"
	"testing"
)

func TestAttributorStageAccounting(t *testing.T) {
	a := NewAttributor([]string{"queue", "service"})
	const ops = 100
	for i := 0; i < ops; i++ {
		sp := a.Start()
		sp.Mark(0)
		sp.Mark(1)
		sp.Finish()
	}
	for i, st := range a.Stages() {
		if got := a.StageHist(i).Total(); got != ops {
			t.Errorf("stage %s: %d samples, want %d", st, got, ops)
		}
	}
	if got := a.TotalHist().Total(); got != ops {
		t.Errorf("total: %d samples, want %d", got, ops)
	}
	// The total must equal the sum of the stage durations exactly:
	// Finish records last-mark minus start, not a third clock reading.
	var stageSum int64
	for i := range a.Stages() {
		stageSum += a.StageHist(i).Sum()
	}
	if total := a.TotalHist().Sum(); total != stageSum {
		t.Errorf("total ns %d != stage-sum ns %d", total, stageSum)
	}
}

func TestAttributorNilSafe(t *testing.T) {
	var a *Attributor
	sp := a.Start()
	if sp != nil {
		t.Fatal("nil attributor handed out a live span")
	}
	sp.Mark(0) // must not panic
	sp.Finish()
	if a.Summary() != nil {
		t.Error("nil attributor produced a summary")
	}
	if a.Stages() != nil || a.StageHist(0) != nil || a.TotalHist() != nil {
		t.Error("nil attributor exposed instruments")
	}
}

func TestAttributorSteadyStateAllocs(t *testing.T) {
	a := NewAttributor([]string{"queue", "service"})
	// Warm the pool.
	for i := 0; i < 100; i++ {
		sp := a.Start()
		sp.Mark(0)
		sp.Mark(1)
		sp.Finish()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := a.Start()
		sp.Mark(0)
		sp.Mark(1)
		sp.Finish()
	})
	if allocs > 0 {
		t.Errorf("steady-state span cycle allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAttributorRegister(t *testing.T) {
	a := NewAttributor([]string{"queue", "service"})
	sp := a.Start()
	sp.Mark(0)
	sp.Mark(1)
	sp.Finish()
	reg := NewRegistry()
	a.Register(reg, "stage_latency_ns", "op_latency_ns", L("shard", "3"))
	snap := reg.Snapshot()
	for _, st := range []string{"queue", "service"} {
		se, ok := snap.Get("stage_latency_ns", L("stage", st), L("shard", "3"))
		if !ok {
			t.Fatalf("stage %q not registered", st)
		}
		if se.Value != 1 {
			t.Errorf("stage %q count %v, want 1", st, se.Value)
		}
	}
	se, ok := snap.Get("op_latency_ns", L("stage", "total"), L("shard", "3"))
	if !ok || se.Value != 1 {
		t.Fatalf("total series missing or wrong: %+v ok=%v", se, ok)
	}
	if q := se.Quantile(0.5); q <= 0 {
		t.Errorf("series quantile %d, want > 0", q)
	}
}

func TestSummarizeAttributors(t *testing.T) {
	mk := func(n int) *Attributor {
		a := NewAttributor([]string{"queue", "service"})
		for i := 0; i < n; i++ {
			sp := a.Start()
			sp.Mark(0)
			sp.Mark(1)
			sp.Finish()
		}
		return a
	}
	sum := SummarizeAttributors([]*Attributor{mk(3), nil, mk(5)})
	if len(sum) != 3 {
		t.Fatalf("got %d rows, want 3 (2 stages + total)", len(sum))
	}
	for _, row := range sum {
		if row.Count != 8 {
			t.Errorf("row %s count %d, want 8", row.Stage, row.Count)
		}
	}
	if sum[len(sum)-1].Stage != "total" {
		t.Errorf("last row %q, want total", sum[len(sum)-1].Stage)
	}
	if SummarizeAttributors([]*Attributor{nil, nil}) != nil {
		t.Error("all-nil summarize should be nil")
	}
}

func TestAttributorConcurrent(t *testing.T) {
	a := NewAttributor([]string{"queue", "service"})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := a.Start()
				sp.Mark(0)
				sp.Mark(1)
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	want := uint64(goroutines * per)
	if got := a.TotalHist().Total(); got != want {
		t.Errorf("total count %d, want %d", got, want)
	}
	for i := range a.Stages() {
		if got := a.StageHist(i).Total(); got != want {
			t.Errorf("stage %d count %d, want %d", i, got, want)
		}
	}
}
