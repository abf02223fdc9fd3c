package cluster

// The cluster's HTTP request plane: a small JSON API that clserve
// mounts next to the observability surface, turning the cluster into
// a standing network service. Admission outcomes map onto transport
// status codes the way a load balancer expects them to:
//
//	ErrOverloaded → 429 (shed: too many nodes degraded, retry later)
//	ErrDraining   → 503 + Retry-After (graceful shutdown in progress)
//	ErrNodeDown   → 503 (the owning node is down until restart)
//	ErrClosed     → 503
//
// Data plane errors (a DUE on read, an out-of-range address) are the
// caller's problem, not capacity signals: 422 and 400 respectively.

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
	"counterlight/internal/mcpool"
)

// API serves the cluster request plane. Mount with Routes.
type API struct {
	c *Cluster
}

// NewAPI wraps c.
func NewAPI(c *Cluster) *API { return &API{c: c} }

// Routes registers the request plane onto mux.
func (a *API) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/submit", a.handleSubmit)
	mux.HandleFunc("GET /v1/read", a.handleRead)
	mux.HandleFunc("POST /v1/flush", a.handleFlush)
	mux.HandleFunc("GET /v1/topology", a.handleTopology)
}

// Handler returns a standalone handler for the request plane.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	a.Routes(mux)
	return mux
}

// submitRequest is the wire form of one operation.
type submitRequest struct {
	Op   string `json:"op"`             // "read" | "write" | "fault"
	Addr uint64 `json:"addr"`           // block-aligned byte address
	Data string `json:"data,omitempty"` // write: hex payload, ≤128 hex chars, zero-padded
	Mode string `json:"mode,omitempty"` // write: "counter" | "counterless" (ignored with auto)
	Auto bool   `json:"auto,omitempty"` // write: let the watermark policy pick the mode
	VM   int    `json:"vm,omitempty"`   // write: owning VM
	Chip int    `json:"chip,omitempty"` // fault: target chip
	Patt uint64 `json:"pattern,omitempty"`
}

type submitResponse struct {
	Node     int    `json:"node"`
	Mode     string `json:"mode,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Plain    string `json:"plain,omitempty"`
	Error    string `json:"error,omitempty"`
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sr submitRequest
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	req, err := sr.toRequest()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	a.serve(w, req)
}

func (a *API) handleRead(w http.ResponseWriter, r *http.Request) {
	addr, err := strconv.ParseUint(r.URL.Query().Get("addr"), 0, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "addr: want a block-aligned address, decimal or 0x-hex")
		return
	}
	a.serve(w, mcpool.Request{Kind: mcpool.OpRead, Addr: addr})
}

func (a *API) serve(w http.ResponseWriter, req mcpool.Request) {
	resp := a.c.SubmitWait(req)
	if code, capacity := statusOf(resp.Err); resp.Err != nil && capacity {
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, code, resp.Err.Error())
		return
	}
	out := submitResponse{Node: a.c.NodeOf(req.Addr)}
	if resp.Err != nil {
		// A data-plane failure: the request was served and the answer
		// is "your data is bad" (DUE, MAC failure, range error).
		out.Error = resp.Err.Error()
		writeJSON(w, http.StatusUnprocessableEntity, out)
		return
	}
	out.Mode = resp.Mode.String()
	out.Degraded = resp.Degraded
	if req.Kind == mcpool.OpRead {
		out.Plain = hex.EncodeToString(resp.Plain[:])
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleFlush(w http.ResponseWriter, r *http.Request) {
	if a.c.Draining() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"durable_seqs": a.c.FlushBarrier()})
}

type topologyNode struct {
	ID        int  `json:"id"`
	Up        bool `json:"up"`
	Degraded  bool `json:"degraded"`
	Watermark int  `json:"watermark"`
	Gen       int  `json:"gen"`
}

func (a *API) handleTopology(w http.ResponseWriter, r *http.Request) {
	wms := a.c.Watermarks()
	nodes := make([]topologyNode, a.c.Nodes())
	for i := range nodes {
		n := a.c.nodes[i]
		n.mu.RLock()
		gen := n.gen
		n.mu.RUnlock()
		nodes[i] = topologyNode{
			ID:        i,
			Up:        a.c.Up(i),
			Degraded:  n.degraded(),
			Watermark: wms[i],
			Gen:       gen,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":      nodes,
		"shards":     a.c.cfg.Node.Shards,
		"draining":   a.c.Draining(),
		"interleave": "striped",
	})
}

func (sr submitRequest) toRequest() (mcpool.Request, error) {
	req := mcpool.Request{Addr: sr.Addr, VM: sr.VM}
	switch sr.Op {
	case "read":
		req.Kind = mcpool.OpRead
	case "write":
		req.Kind = mcpool.OpWrite
		if sr.Auto {
			req.Auto = true
		} else {
			switch sr.Mode {
			case "counter", "":
				req.Mode = epoch.CounterMode
			case "counterless":
				req.Mode = epoch.Counterless
			default:
				return req, fmt.Errorf("mode: want counter or counterless, got %q", sr.Mode)
			}
		}
		raw, err := hex.DecodeString(sr.Data)
		if err != nil {
			return req, fmt.Errorf("data: want hex: %v", err)
		}
		if len(raw) > cipher.BlockSize {
			return req, fmt.Errorf("data: %d bytes exceeds the %d-byte block", len(raw), cipher.BlockSize)
		}
		copy(req.Data[:], raw)
	case "fault":
		req.Kind = mcpool.OpFault
		req.Chip = sr.Chip
		req.Pattern = sr.Patt
	default:
		return req, fmt.Errorf("op: want read, write, or fault, got %q", sr.Op)
	}
	return req, nil
}

// statusOf maps a submission error onto its transport status;
// capacity is true for admission/liveness failures (the request never
// reached an engine).
func statusOf(err error) (code int, capacity bool) {
	switch {
	case err == nil:
		return http.StatusOK, false
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, true
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNodeDown), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, true
	default:
		return http.StatusUnprocessableEntity, false
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
