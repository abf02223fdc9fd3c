package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
)

// TestMergeRegistryAndMetricsJSON mounts an external registry on the
// server and requires its series on every metrics surface.
func TestMergeRegistryAndMetricsJSON(t *testing.T) {
	srv := New()
	ext := obs.NewRegistry()
	ext.Counter("mcpool_submitted_total").Add(42)
	srv.MergeRegistry(ext)
	srv.MergeRegistry(nil) // must be a no-op, not a panic

	rr, body := get(t, srv.Handler(), "/metrics")
	if rr.Code != http.StatusOK || !strings.Contains(body, "mcpool_submitted_total 42") {
		t.Errorf("/metrics status %d, missing merged series in:\n%s", rr.Code, body)
	}

	rr, body = get(t, srv.Handler(), "/metrics.json")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	snap, err := obs.ReadSnapshot(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if v := snap.Value("mcpool_submitted_total"); v != 42 {
		t.Errorf("merged counter = %v, want 42", v)
	}
	if _, ok := snap.Get("serve_runs_started_total"); !ok {
		t.Error("server's own series missing from /metrics.json")
	}
}

// TestAttribEndpoint drives a small attributed mcpool and reads the
// per-stage breakdown back through /api/attrib.
func TestAttribEndpoint(t *testing.T) {
	srv := New()
	pool, err := mcpool.New(mcpool.Config{
		Shards:      2,
		Attribution: true,
		Engine:      testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.RegisterMetrics(reg)
	srv.MergeRegistry(reg)

	sched := mcpool.Schedule(mcpool.ScheduleConfig{Ops: 500, Blocks: 128, Seed: 5})
	futs := make([]*mcpool.Future, len(sched))
	for i, req := range sched {
		if futs[i], err = pool.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	for _, fut := range futs {
		if resp := fut.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	// A worker delivers a response before it marks the writeback stage
	// and finishes the span; Close waits for the workers, so every span
	// is recorded before the counts are read.
	pool.Close()

	rr, body := get(t, srv.Handler(), "/api/attrib")
	if rr.Code != http.StatusOK {
		t.Fatalf("/api/attrib status %d", rr.Code)
	}
	var rows []AttribRow
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/api/attrib not JSON: %v\n%s", err, body)
	}
	// 2 shards × (4 stages + total) = 10 stage-labelled histograms.
	if len(rows) != 10 {
		t.Fatalf("got %d attrib rows, want 10:\n%s", len(rows), body)
	}
	byStage := map[string]uint64{}
	for _, row := range rows {
		if row.Labels["shard"] == "" {
			t.Errorf("row %s/%s lost its shard label", row.Name, row.Stage)
		}
		byStage[row.Stage] += row.Count
		if row.Count > 0 && row.P99Ns < row.P50Ns {
			t.Errorf("row %s/%s: p99 %d < p50 %d", row.Name, row.Stage, row.P99Ns, row.P50Ns)
		}
	}
	for _, stage := range append(append([]string(nil), mcpool.StageNames...), "total") {
		if byStage[stage] != uint64(len(sched)) {
			t.Errorf("stage %s: %d samples across shards, want %d", stage, byStage[stage], len(sched))
		}
	}
}

// testEngineOptions mirrors mcpool's test sizing: a small memory so
// pools build fast.
func testEngineOptions() core.EngineOptions {
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 20
	return opts
}
