package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"counterlight/internal/core"
	"counterlight/internal/mcpool"
)

func apiServer(t *testing.T, cfg Config) (*Cluster, *httptest.Server) {
	t.Helper()
	c := testCluster(t, cfg)
	srv := httptest.NewServer(NewAPI(c).Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// The happy path over the wire: write a block, read it back, flush.
func TestAPIWriteReadFlush(t *testing.T) {
	_, srv := apiServer(t, Config{Nodes: 2, Node: mcpool.Config{Shards: 1, Persist: true}})
	payload := bytes.Repeat([]byte{0xAB}, 64)

	resp := postJSON(t, srv.URL+"/v1/submit", submitRequest{Op: "write", Addr: 64, Data: hex.EncodeToString(payload)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	var out submitResponse
	decodeBody(t, resp, &out)
	if out.Node != 1 || out.Mode != "counter" {
		t.Fatalf("write response %+v", out)
	}

	resp, err := http.Get(srv.URL + "/v1/read?addr=64")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status %d", resp.StatusCode)
	}
	decodeBody(t, resp, &out)
	if out.Plain != hex.EncodeToString(payload) {
		t.Fatalf("read returned %q", out.Plain)
	}

	resp = postJSON(t, srv.URL+"/v1/flush", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	var fl struct {
		Seqs [][]uint64 `json:"durable_seqs"`
	}
	decodeBody(t, resp, &fl)
	if len(fl.Seqs) != 2 {
		t.Fatalf("flush barrier %v", fl.Seqs)
	}
}

// Malformed requests are the caller's fault: 400, never a submit.
func TestAPIBadRequests(t *testing.T) {
	_, srv := apiServer(t, Config{Nodes: 1, Node: mcpool.Config{Shards: 1}})
	for _, sr := range []submitRequest{
		{Op: "transmogrify", Addr: 0},
		{Op: "write", Addr: 0, Data: "zz"},
		{Op: "write", Addr: 0, Data: hex.EncodeToString(make([]byte, 65))},
		{Op: "write", Addr: 0, Mode: "quantum"},
	} {
		resp := postJSON(t, srv.URL+"/v1/submit", sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", sr, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/read?addr=notanaddr")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad addr: status %d, want 400", resp.StatusCode)
	}
	// A read of a never-written block is served and fails in the data
	// plane: 422, not a capacity signal.
	resp, err = http.Get(srv.URL + "/v1/read?addr=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unwritten read: status %d, want 422", resp.StatusCode)
	}
}

// Capacity errors map onto transport codes: a dead node serves 503,
// an overloaded cluster 429, a draining cluster 503 everywhere.
func TestAPICapacityStatus(t *testing.T) {
	c, srv := apiServer(t, Config{Nodes: 2, MaxDegradedFrac: -1, Node: mcpool.Config{Shards: 1}})
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/v1/submit", submitRequest{Op: "read", Addr: 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead node: status %d, want 503", resp.StatusCode)
	}

	var topo struct {
		Nodes    []topologyNode `json:"nodes"`
		Draining bool           `json:"draining"`
	}
	tr, err := http.Get(srv.URL + "/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, tr, &topo)
	if len(topo.Nodes) != 2 || topo.Nodes[0].Up || !topo.Nodes[1].Up {
		t.Fatalf("topology after kill: %+v", topo)
	}

	over, srv2 := apiServer(t, Config{Nodes: 2, MaxDegradedFrac: 0.4, Node: mcpool.Config{Shards: 1}})
	if err := over.Kill(0); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv2.URL+"/v1/submit", submitRequest{Op: "read", Addr: 64})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded: status %d, want 429", resp.StatusCode)
	}

	c.Drain()
	resp = postJSON(t, srv.URL+"/v1/submit", submitRequest{Op: "read", Addr: 64})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/v1/flush", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining flush: status %d, want 503", resp.StatusCode)
	}
}

// FuzzAPIRequest drives arbitrary methods, targets and bodies through
// the /v1 request plane of a live two-node cluster. The plane must not
// panic, and the only server-side status it may answer with is 503
// (draining or a node down): every malformed request is the client's
// 4xx.
func FuzzAPIRequest(f *testing.F) {
	opts := core.DefaultEngineOptions()
	opts.MemSize = 1 << 20
	c, err := New(Config{Nodes: 2, Node: mcpool.Config{Shards: 2, Engine: opts}})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	h := NewAPI(c).Handler()

	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		req, err := http.NewRequest(method, target, bytes.NewReader(body))
		if err != nil {
			return // not an HTTP request the server could receive
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if code := rec.Code; code >= 500 && code != http.StatusServiceUnavailable {
			t.Fatalf("%s %q with body %q: status %d: %s", method, target, body, code, rec.Body)
		}
	})
}
