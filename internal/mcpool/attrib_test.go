package mcpool

import (
	"bytes"
	"sync"
	"testing"
)

// runJournaled drives a deterministic trace through a journaling pool
// with a single submitter per shard (the submitting goroutine is the
// only producer, so each shard's FIFO queue pins its apply order) and
// returns every shard's persisted journal bytes.
func runJournaled(t *testing.T, attribution bool, sched []Request) [][]byte {
	t.Helper()
	p, err := New(Config{
		Shards:      4,
		QueueDepth:  64,
		BatchMax:    8,
		Persist:     true,
		Attribution: attribution,
		Engine:      testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	futs := make([]*Future, 0, len(sched))
	for i, req := range sched {
		req.Tag = i
		fut, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if resp := fut.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	p.FlushBarrier()
	journals := make([][]byte, p.NumShards())
	for s := range journals {
		journals[s] = p.PersistedJournal(s)
	}
	return journals
}

// TestAttributionJournalBitIdentical is the tentpole's safety proof
// at the journal level: the same trace applied with attribution off
// and on must produce byte-identical per-shard journals — same
// sequence numbers, same resolved state and codewords, same response
// digests (plaintexts, ReadInfo, modes) and error bits. Attribution
// observes the pipeline; it must never steer it.
func TestAttributionJournalBitIdentical(t *testing.T) {
	sched := Schedule(ScheduleConfig{Ops: 4000, Blocks: 512, ReadFraction: 0.5, Seed: 99})
	off := runJournaled(t, false, sched)
	on := runJournaled(t, true, sched)
	if len(off) != len(on) {
		t.Fatalf("shard counts differ: %d vs %d", len(off), len(on))
	}
	for s := range off {
		if len(off[s]) == 0 {
			t.Fatalf("shard %d journaled nothing", s)
		}
		if !bytes.Equal(off[s], on[s]) {
			t.Fatalf("shard %d: journal bytes differ with attribution on (%d vs %d bytes)", s, len(off[s]), len(on[s]))
		}
	}
}

// TestAttributionStageTotalsRace asserts the no-double-count /
// no-dropped-span invariant under genuinely racing submitters: after
// the pool quiesces, every stage histogram's sample count — summed
// across shards — equals the number of completed operations, as does
// the end-to-end histogram's, and each shard's stage durations sum to
// its end-to-end nanoseconds exactly. Run under -race (make race)
// this also probes the span pool for data races.
func TestAttributionStageTotalsRace(t *testing.T) {
	p, err := New(Config{
		Shards:      4,
		QueueDepth:  32,
		BatchMax:    8,
		Attribution: true,
		Engine:      testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Submitter g owns blocks ≡ g (mod submitters): single
			// writer per address, like the check harness.
			sched := Schedule(ScheduleConfig{Ops: 1500, Blocks: 256, ReadFraction: 0.5, Seed: int64(g + 1)})
			var futs []*Future
			for _, req := range sched {
				req.Addr = (req.Addr/64*uint64(submitters) + uint64(g)) * 64
				fut, err := p.Submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				fut.Wait()
			}
		}(g)
	}
	wg.Wait()
	p.FlushBarrier() // barrier fences must not show up in any histogram
	completed := p.Aggregate().Completed
	p.Close()

	stageTotals := make([]uint64, len(StageNames))
	var endToEnd uint64
	for s := 0; s < p.NumShards(); s++ {
		a := p.ShardAttribution(s)
		if a == nil {
			t.Fatalf("shard %d: attribution enabled but attributor is nil", s)
		}
		var stageSumNs int64
		for i := range StageNames {
			stageTotals[i] += a.StageHist(i).Total()
			stageSumNs += a.StageHist(i).Sum()
		}
		endToEnd += a.TotalHist().Total()
		if totalNs := a.TotalHist().Sum(); totalNs != stageSumNs {
			t.Errorf("shard %d: end-to-end %d ns != stage sum %d ns", s, totalNs, stageSumNs)
		}
	}
	if completed == 0 {
		t.Fatal("no completed ops")
	}
	for i, name := range StageNames {
		if stageTotals[i] != completed {
			t.Errorf("stage %s: %d samples, want %d (completed ops)", name, stageTotals[i], completed)
		}
	}
	if endToEnd != completed {
		t.Errorf("end-to-end: %d samples, want %d (completed ops)", endToEnd, completed)
	}

	sum := p.AttributionSummary()
	if len(sum) != len(StageNames)+1 {
		t.Fatalf("summary rows %d, want %d", len(sum), len(StageNames)+1)
	}
	for _, row := range sum {
		if row.Count != completed {
			t.Errorf("summary %s: count %d, want %d", row.Stage, row.Count, completed)
		}
	}
}

// TestAttributionOffByDefault pins the off state: no attributors, no
// summary, and no stage series in the registry.
func TestAttributionOffByDefault(t *testing.T) {
	p, err := New(Config{Shards: 2, Engine: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.AttributionEnabled() {
		t.Error("attribution enabled without being asked")
	}
	if p.AttributionSummary() != nil {
		t.Error("summary non-nil with attribution off")
	}
	if p.ShardAttribution(0) != nil {
		t.Error("shard attributor non-nil with attribution off")
	}
}
