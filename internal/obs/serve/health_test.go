package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"counterlight/internal/cluster"
	"counterlight/internal/mcpool"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// getRows fetches a HistRow endpoint and decodes it.
func getRows(t *testing.T, srv *Server, path string) []HistRow {
	t.Helper()
	rr, body := get(t, srv.Handler(), path)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s returned %d", path, rr.Code)
	}
	var rows []HistRow
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("%s body not JSON: %v\n%s", path, err, body)
	}
	return rows
}

// TestProfileEndpoint reads two pools' profilers back through
// /api/profile from the registries they are registered in: one row per
// probe series, in snapshot order, with the series labels and the
// sampled counts.
func TestProfileEndpoint(t *testing.T) {
	srv := New()
	if rows := getRows(t, srv, "/api/profile"); len(rows) != 0 {
		t.Fatalf("empty /api/profile served %d rows", len(rows))
	}

	backends := []string{"stdlib", "other"}
	for i, backend := range backends {
		pool, err := mcpool.New(mcpool.Config{
			Shards:  2,
			Profile: prof.New(backend),
			Engine:  testEngineOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		reg := obs.NewRegistry()
		pool.RegisterMetrics(reg, obs.L("node", strconv.Itoa(i)))
		srv.MergeRegistry(reg)
		for _, req := range mcpool.Schedule(mcpool.ScheduleConfig{Ops: 2000, Blocks: 128, Seed: int64(i + 1)}) {
			if resp := pool.SubmitWait(req); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}

	rows := getRows(t, srv, "/api/profile")
	names := []string{"prof_mac_ns", "prof_pad_batch_ns", "prof_submit_wait_ns"}
	if len(rows) != len(backends)*len(names) {
		t.Fatalf("/api/profile served %d rows, want %d: %+v", len(rows), len(backends)*len(names), rows)
	}
	for i, row := range rows {
		node, name := i/len(names), names[i%len(names)]
		if row.Name != name || row.Stage != "" {
			t.Errorf("row %d: %s (stage %q), want %s in snapshot order", i, row.Name, row.Stage, name)
		}
		if row.Labels["node"] != strconv.Itoa(node) || row.Labels["backend"] != backends[node] {
			t.Errorf("row %d (%s): labels %v, want node %d backend %s", i, row.Name, row.Labels, node, backends[node])
		}
		if row.Count == 0 || row.P99Ns < row.P50Ns {
			t.Errorf("row %d (%s): count %d, p50 %d, p99 %d", i, row.Name, row.Count, row.P50Ns, row.P99Ns)
		}
	}
}

// TestProfileEndpointAcrossRestart: a server that merged a cluster's
// node registries once keeps serving every incarnation's probes. After
// a restart the killed incarnation's gen="0" rows stay, frozen, beside
// the new gen="1" rows, with no re-attach call.
func TestProfileEndpointAcrossRestart(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:           2,
		MaxDegradedFrac: -1, // a slow shard must not shed the test's traffic
		Node: mcpool.Config{
			Shards:  2,
			Profile: prof.New(""),
			Engine:  testEngineOptions(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := New()
	for i := 0; i < cl.Nodes(); i++ {
		srv.MergeRegistry(cl.NodeRegistry(i))
	}
	drive := func(seed int64) {
		for _, req := range mcpool.Schedule(mcpool.ScheduleConfig{Ops: 500, Blocks: 128, Seed: seed}) {
			if resp := cl.SubmitWait(req); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	submitRows := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, row := range getRows(t, srv, "/api/profile") {
			if row.Name == "prof_submit_wait_ns" {
				out["node"+row.Labels["node"]+"/gen"+row.Labels["gen"]] = row.Count
			}
		}
		return out
	}

	drive(1)
	before := submitRows()
	if len(before) != 2 || before["node1/gen0"] == 0 {
		t.Fatalf("before restart: submit rows %v, want node0/gen0 and node1/gen0 with samples", before)
	}
	if err := cl.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	drive(2)
	after := submitRows()
	if len(after) != 3 {
		t.Fatalf("after restart: submit rows %v, want node0/gen0, node1/gen0, node1/gen1", after)
	}
	if after["node1/gen0"] != before["node1/gen0"] {
		t.Errorf("killed incarnation's rows moved: %d samples, was %d", after["node1/gen0"], before["node1/gen0"])
	}
	if after["node1/gen1"] == 0 {
		t.Error("restarted incarnation's submit probe served no samples")
	}
	if after["node0/gen0"] <= before["node0/gen0"] {
		t.Errorf("live node 0's rows did not grow: %d, was %d", after["node0/gen0"], before["node0/gen0"])
	}
}

func TestHealthEndpointStates(t *testing.T) {
	srv := New()

	// No source installed: always OK.
	rr, body := get(t, srv.Handler(), "/health")
	if rr.Code != http.StatusOK {
		t.Fatalf("default /health returned %d", rr.Code)
	}
	var h prof.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/health body not JSON: %v\n%s", err, body)
	}
	if h.State != prof.StateOK {
		t.Fatalf("default /health state %v, want ok", h.State)
	}

	// Installed source drives both the code and the body; FAILING
	// flips to 503 while still serving the verdict, and /api/slo
	// stays 200 throughout.
	cur := prof.Health{State: prof.StateDegraded, Checks: []prof.SLOCheck{
		{Name: "submit_p99_ns", State: prof.StateDegraded, Value: 1.5e6, Limit: 1e6},
	}}
	srv.SetHealth(func() prof.Health { return cur })

	rr, body = get(t, srv.Handler(), "/health")
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded /health returned %d, want 200 (degraded still serves)", rr.Code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.State != prof.StateDegraded || len(h.Checks) != 1 {
		t.Fatalf("degraded verdict not served: %+v", h)
	}

	cur.State = prof.StateFailing
	rr, body = get(t, srv.Handler(), "/health")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("failing /health returned %d, want 503", rr.Code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("failing /health body not JSON: %v\n%s", err, body)
	}
	if h.State != prof.StateFailing {
		t.Fatalf("failing verdict not served: %+v", h)
	}

	rr, _ = get(t, srv.Handler(), "/api/slo")
	if rr.Code != http.StatusOK {
		t.Fatalf("/api/slo returned %d while failing, want 200", rr.Code)
	}

	// Nil reverts to the always-OK default.
	srv.SetHealth(nil)
	rr, _ = get(t, srv.Handler(), "/health")
	if rr.Code != http.StatusOK {
		t.Fatalf("/health after SetHealth(nil) returned %d", rr.Code)
	}
}

func TestFlightEndpoint(t *testing.T) {
	srv := New()

	rr, _ := get(t, srv.Handler(), "/api/flight")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/api/flight with no ring returned %d, want 404", rr.Code)
	}

	rec := flight.NewRing(64)
	rec.Record(flight.KindDegrade, 2, 64, 61_000, 60_000)
	rec.Note(-1, 7, 0)
	srv.SetFlight(rec)

	rr, body := get(t, srv.Handler(), "/api/flight")
	if rr.Code != http.StatusOK {
		t.Fatalf("/api/flight returned %d", rr.Code)
	}
	var dump flight.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/api/flight body not JSON: %v\n%s", err, body)
	}
	if dump.Recorded != 2 || len(dump.Events) != 2 {
		t.Fatalf("/api/flight dump wrong: recorded %d, %d events", dump.Recorded, len(dump.Events))
	}
}
