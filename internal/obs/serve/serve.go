// Package serve is the HTTP half of the live-telemetry subsystem: a
// monitoring service that exposes the metrics registries, per-run
// status, per-epoch time series, and a server-sent-event stream of
// the simulations tracked in its Pool. The storage half is
// internal/obs/timeseries.
//
// The server is strictly an observer. It attaches to runs through the
// obs.Publisher seam and per-run registries; nothing on the simulator
// hot path blocks on a client, and shutting the server down
// mid-stream leaves every Result bit-identical to an unserved run.
package serve

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
	"counterlight/internal/obs/prof"
	"counterlight/internal/obs/timeseries"
)

//go:embed static/index.html
var staticFS embed.FS

// Server is the monitoring HTTP service. Create one with New, attach
// runs through Pool(), and serve with Handler() or ListenAndServe.
type Server struct {
	hub  *hub
	pool *Pool
	reg  *obs.Registry // server-side metrics (SSE clients, run counts)
	mux  *http.ServeMux

	mergedMu sync.Mutex
	merged   []*obs.Registry // external registries (MergeRegistry)

	// Self-observation surface (health.go): named profilers on
	// /api/profile, the /health verdict source, the /api/flight ring.
	obsMu     sync.Mutex
	profilers map[string]*prof.Profiler
	health    func() prof.Health
	flight    *flight.Ring

	mu   sync.Mutex
	http *http.Server
}

// New builds a monitoring server with an empty run pool.
func New() *Server {
	s := &Server{
		hub: newHub(),
		reg: obs.NewRegistry(),
		mux: http.NewServeMux(),
	}
	s.pool = newPool(s.hub)
	s.hub.registerMetrics(s.reg)
	s.pool.registerMetrics(s.reg)
	s.routes()
	return s
}

// Pool returns the run pool; register simulations on it before (or
// while) serving.
func (s *Server) Pool() *Pool { return s.pool }

// Handler returns the server's routing table, for tests and for
// mounting under an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// MergeRegistry adds an external registry to the server's metrics
// surfaces: its series appear on /metrics, /metrics.json, and (for
// stage-labelled latency histograms) /api/attrib alongside the
// server's own and every run's. Use it to mount component registries
// — e.g. an mcpool's shard metrics — on the monitoring server without
// routing them through a Run.
func (s *Server) MergeRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mergedMu.Lock()
	s.merged = append(s.merged, reg)
	s.mergedMu.Unlock()
}

// Handle mounts an external handler on the server's mux — e.g. a
// cluster's request-plane API under "/v1/". Register before
// ListenAndServe; the pattern follows http.ServeMux syntax.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /api/runs", s.handleRuns)
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /api/runs/{id}/series", s.handleSeries)
	s.mux.HandleFunc("GET /api/attrib", s.handleAttrib)
	s.mux.HandleFunc("GET /api/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/profile", s.handleProfile)
	s.mux.HandleFunc("GET /api/slo", s.handleSLO)
	s.mux.HandleFunc("GET /api/flight", s.handleFlight)
	s.mux.HandleFunc("GET /health", s.handleHealth)

	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ListenAndServe binds addr (use ":0" for an ephemeral port), starts
// serving in the background, and returns the bound address. Stop with
// Shutdown.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	return ln.Addr().String(), nil
}

// Shutdown closes the SSE hub (releasing every streaming handler) and
// then gracefully stops the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hub.close()
	s.mu.Lock()
	hs := s.http
	s.http = nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	page, err := staticFS.ReadFile("static/index.html")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(page)
}

// mergedSnapshot combines the server's own registry, every run's
// registry (run="<id>"-labelled), and every MergeRegistry registry
// into one snapshot.
func (s *Server) mergedSnapshot() obs.Snapshot {
	snap := s.reg.Snapshot()
	runs := s.pool.metricsSnapshot()
	snap.Series = append(snap.Series, runs.Series...)
	s.mergedMu.Lock()
	merged := append([]*obs.Registry(nil), s.merged...)
	s.mergedMu.Unlock()
	for _, reg := range merged {
		snap.Series = append(snap.Series, reg.Snapshot().Series...)
	}
	return snap
}

// handleMetrics renders the merged snapshot as a Prometheus
// exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.mergedSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetricsJSON renders the merged snapshot in the clreport
// -compare interchange format.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.mergedSnapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// AttribRow is one stage of one latency-attribution histogram on
// /api/attrib: the series identity plus its distribution reduced to
// count, mean, and histogram percentiles (Series.Quantile: at most
// 1/16 above the true value).
type AttribRow struct {
	Name   string            `json:"name"`
	Stage  string            `json:"stage"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	MeanNs int64             `json:"mean_ns"`
	P50Ns  int64             `json:"p50_ns"`
	P95Ns  int64             `json:"p95_ns"`
	P99Ns  int64             `json:"p99_ns"`
}

// handleAttrib reports every stage-labelled latency histogram in the
// merged snapshot — the obs.Attributor export convention — as a JSON
// breakdown: per-stage counts and percentiles, in the snapshot's
// deterministic series order.
func (s *Server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	snap := s.mergedSnapshot()
	rows := []AttribRow{}
	for _, se := range snap.Series {
		if se.Kind != obs.KindHistogram || se.Labels["stage"] == "" {
			continue
		}
		row := AttribRow{
			Name:  se.Name,
			Stage: se.Labels["stage"],
			Count: uint64(se.Value),
			P50Ns: se.Quantile(0.50),
			P95Ns: se.Quantile(0.95),
			P99Ns: se.Quantile(0.99),
		}
		if row.Count > 0 {
			row.MeanNs = se.Sum / int64(row.Count)
		}
		row.Labels = make(map[string]string, len(se.Labels))
		for k, v := range se.Labels {
			if k != "stage" {
				row.Labels[k] = v
			}
		}
		if len(row.Labels) == 0 {
			row.Labels = nil
		}
		rows = append(rows, row)
	}
	writeJSON(w, rows)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	runs := s.pool.Runs()
	out := make([]RunStatus, len(runs))
	for i, run := range runs {
		out[i] = run.Status()
	}
	writeJSON(w, out)
}

// runFromPath resolves the {id} wildcard to a tracked run.
func (s *Server) runFromPath(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return nil, false
	}
	run, ok := s.pool.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no run %d", id), http.StatusNotFound)
		return nil, false
	}
	return run, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.runFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, run.Status())
}

// handleSeries exports a run's per-epoch samples. ?max=N downsamples
// to at most N points; ?format=csv switches from JSON to CSV.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	run, ok := s.runFromPath(w, r)
	if !ok {
		return
	}
	samples := run.Recorder.Samples()
	if maxStr := r.URL.Query().Get("max"); maxStr != "" {
		max, err := strconv.Atoi(maxStr)
		if err != nil || max <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		samples = timeseries.Downsample(samples, max)
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		http.Error(w, fmt.Sprintf("unknown format %q", format), http.StatusBadRequest)
		return
	}
	if err := timeseries.WriteTo(w, samples, format); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleStream is the SSE endpoint: every epoch sample (and run
// completion) is pushed as it happens. ?run=N filters to one run.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var filter int
	if runStr := r.URL.Query().Get("run"); runStr != "" {
		id, err := strconv.Atoi(runStr)
		if err != nil {
			http.Error(w, "bad run id", http.StatusBadRequest)
			return
		}
		filter = id
	}

	ch, cancel := s.hub.subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				return // hub closed: server shutting down
			}
			if filter != 0 && !eventForRun(e.data, filter) {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.name, e.data)
			fl.Flush()
		}
	}
}

// eventForRun reports whether an event payload belongs to run id.
// Epoch payloads carry {"run":N,...}; run payloads carry {"id":N,...}.
func eventForRun(data []byte, id int) bool {
	var probe struct {
		Run int `json:"run"`
		ID  int `json:"id"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Run == id || probe.ID == id
}
