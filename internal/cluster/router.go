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
	// Replicas are the fronted replica base URLs (http://host:port).
	// Required, at least one.
	Replicas []string
	// VNodes is the virtual-node count per replica (default DefaultVNodes).
	VNodes int
	// Retries is the failover budget: how many additional ring nodes a
	// request may try after the primary rejects with 503 or is unreachable
	// (default 2).
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

// Router trace stages, in pipeline order. route (read body, compute the
// affinity key) and pick (ring lookup + cooloff ordering) are the router's
// own overhead; each failed forward closes an attempt.N stage; the forward
// that produced the relayed response closes proxy; relay is the response
// write. Marks tile the request interval, so the per-stage histograms sum to
// cluster.proxy.seconds by construction — the serve-pipeline invariant from
// the replica side, extended across the hop.
const (
	StageRoute   = "route"
	StagePick    = "pick"
	StageAttempt = "attempt" // traced as attempt.N, observed into one histogram
	StageProxy   = "proxy"
	StageRelay   = "relay"
)

// StageHistName maps a router trace stage to its latency histogram
// ("cluster.stage.<stage>.seconds"); attempt.N stages all observe into the
// attempt histogram.
func StageHistName(stage string) string { return "cluster.stage." + stage + ".seconds" }

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
	hStageRoute   *obs.Histogram
	hStagePick    *obs.Histogram
	hStageAttempt *obs.Histogram
	hStageProxy   *obs.Histogram
	hStageRelay   *obs.Histogram
}

// ErrNoReplicas is returned by New when the config names no replicas.
var ErrNoReplicas = errors.New("cluster: no replicas configured")

// New builds a router over cfg.Replicas. The prober is not started; call
// Start (tests drive ProbeOnce instead).
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, ErrNoReplicas
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
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
		hStageRoute:   reg.Histogram(StageHistName(StageRoute), obs.TimeBuckets()),
		hStagePick:    reg.Histogram(StageHistName(StagePick), obs.TimeBuckets()),
		hStageAttempt: reg.Histogram(StageHistName(StageAttempt), obs.TimeBuckets()),
		hStageProxy:   reg.Histogram(StageHistName(StageProxy), obs.TimeBuckets()),
		hStageRelay:   reg.Histogram(StageHistName(StageRelay), obs.TimeBuckets()),
	}
	for _, b := range cfg.Replicas {
		base := normalizeBase(b)
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
		Client:     cfg.Client, // nil -> shared obs scrape client
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

// routeKey is the slice of an estimate/feedback body the router must
// decode: just x, the affinity key. Everything else, τ included, passes
// through opaque.
type routeKey struct {
	X []float64 `json:"x"`
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
	finish := func(status int) {
		rt.hStageRelay.ObserveDuration(tr.Mark(StageRelay))
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

	body, key, err := extractKey(r)
	rt.hStageRoute.ObserveDuration(tr.Mark(StageRoute))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		finish(http.StatusBadRequest)
		return
	}
	budget := 1 + rt.cfg.Retries
	candidates := rt.ring.Successors(key, budget)
	if len(candidates) == 0 {
		rt.hStagePick.ObserveDuration(tr.Mark(StagePick))
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
	rt.hStagePick.ObserveDuration(tr.Mark(StagePick))
	var last *http.Response
	var lastBody []byte
	for i, base := range ordered {
		if i > 0 {
			rt.mFailovers.Inc()
		}
		n := i + 1
		resp, respBody, err := rt.forward(ctx, base, r, body, tr.ID, n, sampled)
		pm := rt.perReplica[base]
		if pm != nil {
			pm.requests.Inc()
		}
		if err != nil {
			if pm != nil {
				pm.failures.Inc()
			}
			d := tr.Mark(attemptStage(n))
			rt.hStageAttempt.ObserveDuration(d)
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
			d := tr.Mark(attemptStage(n))
			rt.hStageAttempt.ObserveDuration(d)
			attempts = append(attempts, attemptRecord(n, base, "rejected_503", d))
			last, lastBody = resp, respBody
			continue // overloaded replica: fail over
		}
		d := tr.Mark(StageProxy)
		rt.hStageProxy.ObserveDuration(d)
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

// attemptStage names the trace stage of forward attempt n (attempt.1,
// attempt.2, …).
func attemptStage(n int) string { return StageAttempt + "." + strconv.Itoa(n) }

// attemptRecord is one entry of the trace's per-attempt annotation.
func attemptRecord(n int, base, outcome string, d time.Duration) map[string]any {
	return map[string]any{
		"n":       n,
		"replica": base,
		"outcome": outcome,
		"us":      float64(d.Nanoseconds()) / 1e3,
	}
}

// extractKey reads the request far enough to compute the routing key and
// returns the (possibly re-buffered) body for forwarding.
func extractKey(r *http.Request) ([]byte, uint64, error) {
	var rk routeKey
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err != nil {
			return nil, 0, fmt.Errorf("read body: %v", err)
		}
		if err := json.Unmarshal(body, &rk); err != nil {
			return nil, 0, fmt.Errorf("bad JSON body: %v", err)
		}
		return body, KeyHash(rk.X), nil
	case http.MethodGet:
		q := r.URL.Query()
		for _, s := range strings.Split(q.Get("x"), ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad x component %q", s)
			}
			rk.X = append(rk.X, v)
		}
		return nil, KeyHash(rk.X), nil
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

// forward sends attempt n of the client's request to a replica and reads
// the full response body (so failover can move on without leaking the
// connection). The fleet trace ID and the parent span (this attempt) ride
// the request headers; the replica tags its own stage trace with both, which
// is the join key tracescan assembles cross-process traces on.
func (rt *Router) forward(ctx context.Context, base string, r *http.Request, body []byte, traceID string, n int, sampled bool) (*http.Response, []byte, error) {
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
	req.Header.Set(obs.TraceParentHeader, traceID+"/"+attemptStage(n))
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
		if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
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

// normalizeBase turns a replica flag value into a base URL: scheme
// defaulting to http, trailing slash stripped.
func normalizeBase(s string) string {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimSuffix(s, "/")
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
