package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeReplica is a minimal stand-in for a `cardnet serve` process: it
// speaks just enough of /estimate, /healthz, /drift, and /admin/reload for
// the router, prober, and rollout controller to operate, and records what
// it saw, down to the requests per path.
type fakeReplica struct {
	id string
	ts *httptest.Server

	healthy    atomic.Bool // false: /healthz answers 503
	overloaded atomic.Bool // true: /estimate answers 503 + Retry-After

	mu        sync.Mutex
	estimates int
	reloads   []string
	version   int
	drift     map[string]any
	traceIDs  []string
	parents   []string
	hzExtra   map[string]any // extra /healthz fields
	hits      map[string]int // requests per URL path
}

func newFakeReplica(t *testing.T, id string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id, version: 1, hits: map[string]int{}, drift: map[string]any{
		"status": "ok", "qerror_ewma": 0.0, "samples": 0.0,
	}}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", func(w http.ResponseWriter, r *http.Request) {
		if f.overloaded.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		f.mu.Lock()
		f.estimates++
		if tid := r.Header.Get("X-Trace-Id"); tid != "" {
			f.traceIDs = append(f.traceIDs, tid)
		}
		if p := r.Header.Get("X-Trace-Parent"); p != "" {
			f.parents = append(f.parents, p)
		}
		f.mu.Unlock()
		// A rogue replica-minted trace ID: the router must NOT relay this —
		// its own fleet trace ID is the response's join key.
		w.Header().Set("X-Trace-Id", "trace-"+f.id)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"estimate":1,"replica":%q}`, f.id)
	})
	mux.HandleFunc("/feedback", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"replica":%q}`, f.id)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		f.mu.Lock()
		doc := map[string]any{"status": "ok", "model_version": f.version, "estimate_requests": f.estimates}
		for k, v := range f.hzExtra {
			doc[k] = v
		}
		f.mu.Unlock()
		json.NewEncoder(w).Encode(doc)
	})
	mux.HandleFunc("/drift", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		doc := make(map[string]any, len(f.drift))
		for k, v := range f.drift {
			doc[k] = v
		}
		f.mu.Unlock()
		json.NewEncoder(w).Encode(doc)
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"bad reload"}`)
			return
		}
		if req.Path == "reject" { // test hook: a reload the replica refuses
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"shape mismatch"}`)
			return
		}
		f.mu.Lock()
		f.reloads = append(f.reloads, req.Path)
		f.version++
		v := f.version
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"version": v})
	})
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits[r.URL.Path]++
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) base() string { return f.ts.URL }

func (f *fakeReplica) estimateCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.estimates
}

func (f *fakeReplica) reloadedPaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reloads...)
}

func (f *fakeReplica) setDrift(ewma float64, samples int, status string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drift = map[string]any{"status": status, "qerror_ewma": ewma, "samples": float64(samples)}
}
