package serve

import (
	"encoding/json"
	"net/http"
	"strings"

	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
)

// This file is the self-observation surface: /api/profile serves the
// online profilers' latency histograms from the merged registry
// snapshot, /health and /api/slo serve the rolling SLO verdict, and
// /api/flight serves the flight recorder's event ring. All follow the
// server's observer contract — reads snapshot lock-free or
// briefly-locked state and never touch a hot path.

// SetHealth installs the health source /health and /api/slo serve:
// a function returning the current verdict, conventionally wrapping
// a prof.Evaluator fed by the owner's SLO loop. Nil reverts to the
// default always-OK response.
func (s *Server) SetHealth(fn func() prof.Health) {
	s.obsMu.Lock()
	s.health = fn
	s.obsMu.Unlock()
}

// SetFlight attaches a flight recorder to /api/flight.
func (s *Server) SetFlight(r *flight.Ring) {
	s.obsMu.Lock()
	s.flight = r
	s.obsMu.Unlock()
}

// handleProfile serves every prof_* histogram in the merged snapshot
// (the profilers' registered probes) as rows, in the snapshot's
// deterministic series order. A restarted cluster node's registry
// carries each incarnation's probes under its own gen label, so rows
// from a killed incarnation stay, frozen, beside the live ones.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, histRows(s.mergedSnapshot(), func(se obs.Series) bool {
		return strings.HasPrefix(se.Name, "prof_")
	}))
}

// currentHealth reads the installed health source (always-OK when
// none is installed).
func (s *Server) currentHealth() prof.Health {
	s.obsMu.Lock()
	fn := s.health
	s.obsMu.Unlock()
	if fn == nil {
		return prof.Health{State: prof.StateOK}
	}
	return fn()
}

// handleHealth is the load-balancer-shaped endpoint: 200 with the
// verdict JSON while OK or DEGRADED (degraded still serves), 503 once
// FAILING.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.currentHealth()
	if h.State == prof.StateFailing {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, h)
		return
	}
	writeJSON(w, h)
}

// handleSLO always serves 200 with the full verdict — the
// dashboard-shaped view of the same evaluation /health gates on.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.currentHealth())
}

// handleFlight dumps the attached flight recorder (404 when none).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	s.obsMu.Lock()
	rec := s.flight
	s.obsMu.Unlock()
	if rec == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.WriteJSON(w) //nolint:errcheck // client gone; nothing to report
}

// writeJSONBody encodes after the caller has already written headers
// and a status code (writeJSON would be too late to change status).
func writeJSONBody(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report
}
