package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

func TestProfileEndpoint(t *testing.T) {
	srv := New()

	// Empty surface: still valid JSON, an empty list.
	rr, body := get(t, srv.Handler(), "/api/profile")
	if rr.Code != http.StatusOK {
		t.Fatalf("empty /api/profile returned %d", rr.Code)
	}
	var entries []ProfileEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("empty /api/profile body not JSON: %v\n%s", err, body)
	}
	if len(entries) != 0 {
		t.Fatalf("empty /api/profile served %d entries", len(entries))
	}

	// Live data: feed two profilers, check both show up sorted with
	// the observations they took.
	pfB := prof.New("stdlib")
	pfA := prof.New("ref")
	for i := 0; i < 10_000; i++ {
		pfA.Service.Observe(1000)
		pfB.Service.Observe(2000)
	}
	srv.AddProfile("pool", pfB)
	srv.AddProfile("engine", pfA)
	srv.AddProfile("nil-is-ignored", nil)

	rr, body = get(t, srv.Handler(), "/api/profile")
	if rr.Code != http.StatusOK {
		t.Fatalf("/api/profile returned %d", rr.Code)
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/api/profile body not JSON: %v\n%s", err, body)
	}
	if len(entries) != 2 {
		t.Fatalf("/api/profile served %d entries, want 2", len(entries))
	}
	if entries[0].Name != "engine" || entries[1].Name != "pool" {
		t.Fatalf("entries not sorted by name: %q, %q", entries[0].Name, entries[1].Name)
	}
	if entries[0].Backend != "ref" || entries[1].Backend != "stdlib" {
		t.Fatalf("backends wrong: %q, %q", entries[0].Backend, entries[1].Backend)
	}
	if n := entries[0].Service.Count; n == 0 {
		t.Fatal("engine profiler served zero service observations")
	}
	if a, b := entries[0].Service.EWMA, entries[1].Service.EWMA; !(a > 0 && b > a) {
		t.Fatalf("service EWMAs not ordered: engine %.0f vs pool %.0f", a, b)
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
