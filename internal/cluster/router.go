package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/obs"
)

// Config tunes the router. Zero values take the documented defaults.
type Config struct {
	// Replicas are the fronted replicas, as base URLs or host:port
	// entries; New normalizes them and folds duplicates. Required, at
	// least one non-blank entry.
	Replicas []string
	// VNodes is the virtual-node count per replica (default DefaultVNodes).
	VNodes int
	// Retries is the failover budget: how many additional ring nodes a
	// request may try after the primary rejects with 503 or is unreachable.
	// 0 means no failover: each request tries its primary only. Negative
	// values count as 0.
	Retries int
	// ProxyTimeout bounds one client request end to end, all failover
	// attempts included (default 5s).
	ProxyTimeout time.Duration
	// MaxCooloff caps how long a Retry-After hint keeps a replica out of
	// the routing candidate set (default 5s).
	MaxCooloff time.Duration
	// ProbeInterval and EjectAfter configure the health prober (see
	// ProberConfig).
	ProbeInterval time.Duration
	EjectAfter    int
	// Client issues proxied requests and probes; nil uses a dedicated
	// client with sane timeouts.
	Client *http.Client
	// Registry receives router metrics (nil uses obs.Default).
	Registry *obs.Registry
	// Sampler, when set, emits the router's tiled request traces to a JSONL
	// sink (stage marks and histograms are always on; sampling only gates
	// emission, mirroring the replicas' -trace-sample-rate contract).
	Sampler *obs.TraceSampler
	// Rollout tunes the model-rollout controller.
	Rollout RolloutConfig
}

// routerStages is the router's stage table, in pipeline order: route (read
// body, compute the affinity key), pick (ring lookup + cooloff ordering),
// attempt.N for each failed forward, proxy for the forward whose response is
// relayed, relay (the response write). Marks tile the request interval, so
// the stage histograms sum to cluster.proxy.seconds by construction.
type routerStages struct {
	route, pick, proxy, relay *obs.Stage
	attempt                   []*obs.Stage // attempt.n at n-1; one histogram
}

func newRouterStages(reg *obs.Registry, attempts int) routerStages {
	st := routerStages{
		route:   &obs.Stage{Name: "route", Hist: reg.Histogram("cluster.stage.route.seconds", obs.TimeBuckets())},
		pick:    &obs.Stage{Name: "pick", Hist: reg.Histogram("cluster.stage.pick.seconds", obs.TimeBuckets())},
		proxy:   &obs.Stage{Name: "proxy", Hist: reg.Histogram("cluster.stage.proxy.seconds", obs.TimeBuckets())},
		relay:   &obs.Stage{Name: "relay", Hist: reg.Histogram("cluster.stage.relay.seconds", obs.TimeBuckets())},
		attempt: make([]*obs.Stage, attempts),
	}
	hist := reg.Histogram("cluster.stage.attempt.seconds", obs.TimeBuckets())
	for i := range st.attempt {
		st.attempt[i] = &obs.Stage{Name: "attempt." + strconv.Itoa(i+1), Hist: hist}
	}
	return st
}

// replicaMetrics are the per-replica counters the router maintains: proxied
// requests and failed attempts (connect errors or 503 rejections).
type replicaMetrics struct {
	requests *obs.Counter
	failures *obs.Counter
}

// Router fronts a replica fleet: cache-affine consistent-hash routing of
// /estimate and /feedback, health-driven ring membership, bounded failover,
// and rolling model rollout. Create with New, route with Handler, start
// probing with Start, stop with Close.
type Router struct {
	cfg     Config
	ring    *Ring
	prober  *Prober
	rollout *Rollout
	client  *http.Client
	reg     *obs.Registry

	draining atomic.Bool

	coolMu  sync.Mutex
	cooloff map[string]time.Time // replica base -> no traffic until

	perReplica map[string]*replicaMetrics
	sampler    *obs.TraceSampler

	mRequests     *obs.Counter
	mFailovers    *obs.Counter
	mCooloffs     *obs.Counter
	mExhausted    *obs.Counter
	mNoReplicas   *obs.Counter
	mTraceSampled *obs.Counter
	gRingSize     *obs.Gauge
	hProxy        *obs.Histogram
	stages        routerStages
}

// ErrNoReplicas is returned by New when the config names no replicas.
var ErrNoReplicas = errors.New("cluster: no replicas configured")

// New builds a router over cfg.Replicas, each entry trimmed and
// normalized to a base URL (scheme defaulting to http, trailing slash
// stripped), blanks dropped and duplicates folded. The prober is not
// started; call Start (tests drive ProbeOnce instead).
func New(cfg Config) (*Router, error) {
	cfg.Replicas = distinctBases(cfg.Replicas)
	if len(cfg.Replicas) == 0 {
		return nil, ErrNoReplicas
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 5 * time.Second
	}
	if cfg.MaxCooloff <= 0 {
		cfg.MaxCooloff = 5 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.ProxyTimeout}
	}
	rt := &Router{
		cfg:           cfg,
		ring:          NewRing(cfg.VNodes),
		client:        client,
		reg:           reg,
		cooloff:       make(map[string]time.Time),
		perReplica:    make(map[string]*replicaMetrics, len(cfg.Replicas)),
		sampler:       cfg.Sampler,
		mRequests:     reg.Counter("cluster.requests"),
		mFailovers:    reg.Counter("cluster.failovers"),
		mCooloffs:     reg.Counter("cluster.retry_after.cooloffs"),
		mExhausted:    reg.Counter("cluster.exhausted"),
		mNoReplicas:   reg.Counter("cluster.no_replicas"),
		mTraceSampled: reg.Counter("cluster.trace.sampled"),
		gRingSize:     reg.Gauge("cluster.ring.size"),
		hProxy:        reg.Histogram("cluster.proxy.seconds", obs.TimeBuckets()),
		stages:        newRouterStages(reg, 1+cfg.Retries),
	}
	for _, base := range cfg.Replicas {
		rt.ring.Add(base)
		rt.perReplica[base] = &replicaMetrics{
			requests: reg.Counter("cluster.replica." + sanitizeNode(base) + ".requests"),
			failures: reg.Counter("cluster.replica." + sanitizeNode(base) + ".failures"),
		}
	}
	rt.gRingSize.Set(float64(rt.ring.Len()))
	rt.prober = NewProber(rt.ring.Nodes(), ProberConfig{
		Interval:   cfg.ProbeInterval,
		EjectAfter: cfg.EjectAfter,
		Client:     cfg.Client, // nil -> shared obs client
		Registry:   reg,
		OnChange:   rt.onHealthChange,
	})
	rcfg := cfg.Rollout
	rcfg.Client = client
	rt.rollout = NewRollout(rcfg)
	return rt, nil
}

// onHealthChange keeps ring membership in lockstep with probed health.
func (rt *Router) onHealthChange(base string, healthy bool) {
	if healthy {
		rt.ring.Add(base)
	} else {
		rt.ring.Remove(base)
	}
	rt.gRingSize.Set(float64(rt.ring.Len()))
}

// Start launches the health probe loop.
func (rt *Router) Start() { rt.prober.Start() }

// Drain marks the router draining: /healthz flips to "draining" so load
// balancers stop sending new traffic while in-flight requests finish.
func (rt *Router) Drain() { rt.draining.Store(true) }

// Draining reports whether Drain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Close stops the prober and any in-flight rollout wait.
func (rt *Router) Close() {
	rt.prober.Stop()
	rt.rollout.Stop()
}

// Prober exposes the router's health prober (benchmarks and tests drive
// ProbeOnce deterministically).
func (rt *Router) Prober() *Prober { return rt.prober }

// Ring exposes the routing ring (read-only use: Nodes/Len/Lookup).
func (rt *Router) Ring() *Ring { return rt.ring }

// Rollout exposes the rollout controller.
func (rt *Router) Rollout() *Rollout { return rt.rollout }

// Handler returns the router's endpoint tree: proxied /estimate and
// /feedback, the router's own /healthz and /metrics, and /admin/rollout.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", rt.handleProxy)
	mux.HandleFunc("/feedback", rt.handleProxy)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/admin/rollout", rt.handleRollout)
	return mux
}

// handleProxy routes one /estimate or /feedback request to its ring node
// with bounded failover, tracing the journey as tiled stages (route → pick →
// attempt.N* → proxy → relay). The fleet trace ID — the client's if it sent
// one, minted here otherwise — is stamped on every response path, error
// paths included, and forwarded to the replicas so their stage traces join
// this one.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Inc()
	tr := obs.NewTraceWith(r.Header.Get(obs.TraceHeader))
	tr.Annotate("role", "router")
	w.Header().Set(obs.TraceHeader, tr.ID)
	// The sampling decision is made up front so every forward can carry it
	// to the replica (head-based sampling): both halves of a sampled trace
	// land in their JSONL logs, joinable at any rate.
	sampled := rt.sampler.Sample()

	// attempts is the retry/failover amplification record: one entry per
	// forward (ordinal, replica, outcome, duration), kept in the trace so
	// tracescan can attribute tail latency to failovers explicitly.
	var attempts []map[string]any
	st := &rt.stages
	finish := func(status int) {
		tr.Mark(st.relay)
		tr.Annotate("status", status)
		if len(attempts) > 0 {
			tr.Annotate("attempts", attempts)
			tr.Annotate("failovers", len(attempts)-1)
		}
		// e2e from the trace total, not a second clock read: the stage
		// histograms then sum to cluster.proxy.seconds by construction. The
		// exemplar links the latest bucket hit back to this trace.
		rt.hProxy.ObserveExemplarDuration(tr.Total(), tr.ID)
		if sampled {
			rt.mTraceSampled.Inc()
			rt.sampler.Emit(tr)
		}
	}

	body, key, err := ExtractKey(r)
	tr.Mark(st.route)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		finish(http.StatusBadRequest)
		return
	}
	// The failover budget, 1 + Retries: one candidate per attempt stage.
	candidates := rt.ring.Successors(key, len(st.attempt))
	if len(candidates) == 0 {
		tr.Mark(st.pick)
		rt.mNoReplicas.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		finish(http.StatusServiceUnavailable)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProxyTimeout)
	defer cancel()

	// First pass over candidates skips replicas inside a Retry-After
	// cooloff; if that skips everyone, the cooling candidates are retried
	// anyway rather than failing a request the fleet could serve.
	ordered := rt.orderCandidates(candidates)
	tr.Mark(st.pick)
	var last *http.Response
	var lastBody []byte
	for i, base := range ordered {
		if i > 0 {
			rt.mFailovers.Inc()
		}
		n, attempt := i+1, st.attempt[i]
		resp, respBody, err := rt.forward(ctx, base, r, body, tr.ID, attempt.Name, sampled)
		pm := rt.perReplica[base]
		if pm != nil {
			pm.requests.Inc()
		}
		if err != nil {
			if pm != nil {
				pm.failures.Inc()
			}
			d := tr.Mark(attempt)
			if ctx.Err() != nil {
				attempts = append(attempts, attemptRecord(n, base, "deadline", d))
				writeError(w, http.StatusGatewayTimeout, "proxy deadline: "+ctx.Err().Error())
				finish(http.StatusGatewayTimeout)
				return
			}
			attempts = append(attempts, attemptRecord(n, base, "unreachable", d))
			continue // connect error: fail over
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if pm != nil {
				pm.failures.Inc()
			}
			rt.noteRetryAfter(base, resp.Header.Get("Retry-After"))
			d := tr.Mark(attempt)
			attempts = append(attempts, attemptRecord(n, base, "rejected_503", d))
			last, lastBody = resp, respBody
			continue // overloaded replica: fail over
		}
		d := tr.Mark(st.proxy)
		attempts = append(attempts, attemptRecord(n, base, "ok", d))
		relay(w, resp, respBody)
		finish(resp.StatusCode)
		return
	}
	rt.mExhausted.Inc()
	if last != nil {
		relay(w, last, lastBody) // propagate the fleet's 503 + Retry-After
		finish(last.StatusCode)
		return
	}
	writeError(w, http.StatusBadGateway, "all replicas unreachable")
	finish(http.StatusBadGateway)
}

// attemptRecord is one entry of the trace's per-attempt annotation.
func attemptRecord(n int, base, outcome string, d time.Duration) map[string]any {
	return map[string]any{
		"n":       n,
		"replica": base,
		"outcome": outcome,
		"us":      float64(d.Nanoseconds()) / 1e3,
	}
}

// ExtractKey reads the request far enough to compute the routing key and
// returns the (possibly re-buffered) body for forwarding. A POST body is
// read as the replica reads it (ReadQuery), so the router refuses what the
// replica would and routes on the x the replica serves.
func ExtractKey(r *http.Request) ([]byte, uint64, error) {
	switch r.Method {
	case http.MethodPost:
		body, q, err := ReadQuery(r)
		if err != nil {
			return nil, 0, err
		}
		return body, KeyHash(q.X), nil
	case http.MethodGet:
		x, err := ParseX(r.URL.Query().Get("x"))
		if err != nil {
			return nil, 0, err
		}
		return nil, KeyHash(x), nil
	default:
		return nil, 0, fmt.Errorf("method %s not allowed", r.Method)
	}
}

// orderCandidates moves candidates inside a Retry-After cooloff to the back
// of the attempt order, preserving ring order within each class.
func (rt *Router) orderCandidates(candidates []string) []string {
	now := time.Now()
	rt.coolMu.Lock()
	defer rt.coolMu.Unlock()
	hot := make([]string, 0, len(candidates))
	var cooling []string
	for _, c := range candidates {
		if until, ok := rt.cooloff[c]; ok && now.Before(until) {
			cooling = append(cooling, c)
			continue
		}
		hot = append(hot, c)
	}
	return append(hot, cooling...)
}

// noteRetryAfter honors a replica's Retry-After hint: the replica drops out
// of the preferred candidate set for the hinted duration (capped at
// MaxCooloff).
func (rt *Router) noteRetryAfter(base, header string) {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs <= 0 {
		return
	}
	d := time.Duration(secs) * time.Second
	if d > rt.cfg.MaxCooloff {
		d = rt.cfg.MaxCooloff
	}
	rt.coolMu.Lock()
	rt.cooloff[base] = time.Now().Add(d)
	rt.coolMu.Unlock()
	rt.mCooloffs.Inc()
}

// forward sends one attempt of the client's request to a replica and reads
// the full response body (so failover can move on without leaking the
// connection). The fleet trace ID and the parent span (the attempt's stage
// name) ride the request headers; the replica tags its own stage trace with
// both, which is the join key tracescan assembles cross-process traces on.
func (rt *Router) forward(ctx context.Context, base string, r *http.Request, body []byte, traceID, span string, sampled bool) (*http.Response, []byte, error) {
	target := base + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, target, rd)
	if err != nil {
		return nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	req.Header.Set(obs.TraceParentHeader, traceID+"/"+span)
	if sampled {
		// Propagate the sampling decision so the replica emits the other
		// half of this trace even when its own counter says no.
		req.Header.Set(obs.TraceSampledHeader, "1")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

// relay copies a replica response to the client: retry headers, content
// type, status, body. X-Trace-Id is deliberately NOT copied — the router
// already stamped its own (fleet) trace ID on the response, and the replica
// echoes that same ID back, so overwriting would only mask a propagation
// bug.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// handleHealthz reports the router's own state: ok|draining, ring size, and
// every replica's probed health, plus the current rollout state.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if rt.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"role":       "router",
		"ring_size":  rt.ring.Len(),
		"vnodes":     rt.ring.VNodes(),
		"replicas":   rt.prober.Snapshot(),
		"rollout":    rt.rollout.Status(),
		"configured": len(rt.cfg.Replicas),
	})
}

// handleMetrics dumps the router's obs registry, JSON by default,
// Prometheus text on Accept: text/plain, and OpenMetrics with trace-ID
// exemplars on Accept: application/openmetrics-text — the same content
// negotiation the replicas' /metrics speaks.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		rt.reg.WriteOpenMetrics(w)
		return
	}
	if strings.Contains(accept, "text/plain") {
		w.Header().Set("Content-Type", obs.PromContentType)
		rt.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rt.reg.WriteJSON(w)
}

// rolloutRequest is the POST /admin/rollout body: the model file to roll
// out and the file to restore onto the canary if the bake verdict is a
// regression.
type rolloutRequest struct {
	Path         string `json:"path"`
	RollbackPath string `json:"rollback_path"`
}

// handleRollout starts a rollout (POST) or reports the current/last one
// (GET). A rollout already in flight answers 409.
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rt.rollout.Status())
	case http.MethodPost:
		var req rolloutRequest
		if err := ReadJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, `"path" is required`)
			return
		}
		if err := rt.rollout.Start(req.Path, req.RollbackPath, rt.prober.Healthy); err != nil {
			code := http.StatusConflict
			if errors.Is(err, ErrNoReplicas) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, rt.rollout.Status())
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// distinctBases turns replica flag values into distinct base URLs in first
// appearance order: each entry trimmed, scheme defaulting to http, trailing
// slash stripped, blank entries dropped.
func distinctBases(replicas []string) []string {
	var out []string
	seen := make(map[string]bool, len(replicas))
	for _, s := range replicas {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		s = strings.TrimSuffix(s, "/")
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sanitizeNode maps a replica base URL into a metric-name fragment:
// scheme stripped, every non-alphanumeric rune replaced by '_'.
func sanitizeNode(base string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the router's JSON error envelope (the same {"error": …}
// shape the replicas use).
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
