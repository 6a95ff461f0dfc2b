package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cardnet/internal/autopilot"
	"cardnet/internal/checkpoint"
	"cardnet/internal/cluster"
	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/obs/profcap"
	"cardnet/internal/obs/runtimeobs"
	"cardnet/internal/obs/slo"
	"cardnet/internal/serving"
	"cardnet/internal/simselect"
)

// httpErrors counts non-2xx responses across all endpoints.
var httpErrors = obs.Default.Counter("http.errors")

// HTTP-side stages of the request trace plus the end-to-end histogram. The
// engine owns cache/queue.wait/batch.form/forward; admission (parse +
// validate) and write (response encoding) happen here. Because trace marks
// tile the interval, the per-stage histograms sum to serving.e2e.seconds.
var (
	mStageAdmission = obs.Default.Histogram(serving.StageHistName(serving.StageAdmission), obs.TimeBuckets())
	mStageWrite     = obs.Default.Histogram(serving.StageHistName(serving.StageWrite), obs.TimeBuckets())
	mE2E            = obs.Default.Histogram(serving.E2EHistogram, obs.TimeBuckets())
	mTraceSampled   = obs.Default.Counter("trace.sampled")
	mAuditDropped   = obs.Default.Counter("audit.dropped")
)

// Availability counters the SLO tracker's error-budget math reads: every
// /estimate request, and the subset answered with a 5xx (503 overload/
// shutdown, 504 deadline).
var (
	mEstimateRequests = obs.Default.Counter("http.estimate.requests")
	mEstimate5xx      = obs.Default.Counter("http.estimate.5xx")
)

// serveOptions carries the observability add-ons of the serving mux; the
// zero value (no trace log, no audit oracle) works, because withDefaults
// builds the monitor and SLO tracker it lacks.
type serveOptions struct {
	mon       *monitor.Monitor  // accuracy/drift monitor (nil → created)
	sampler   *obs.TraceSampler // JSONL trace sampling (nil → off)
	oracle    *simselect.EncodedOracle
	auditRate float64 // fraction of estimates replayed against oracle

	slo         *slo.Tracker      // burn-rate SLO tracker (nil → default objectives, unstarted)
	capturer    *profcap.Capturer // triggered pprof capture (nil → off)
	obsInterval time.Duration     // runtime sampler cadence (0 → default 10s)

	pilot *autopilot.Pilot // closed-loop retrain pilot (nil → off)

	// autopilotCfg, when non-nil, makes runServe build and start a pilot over
	// the engine it creates (newServeMux callers that already have an engine
	// construct their own pilot and set the pilot field directly). The labeler
	// comes from the audit oracle: the pilot needs ground truth to retrain on.
	autopilotCfg *autopilot.Config
}

// withDefaults fills what the serving mux always needs: a drift monitor and
// an unstarted SLO tracker over the default objectives, so /drift,
// /feedback, /slo and /healthz work (everything reads "ok" until Eval
// runs).
func (o serveOptions) withDefaults() serveOptions {
	if o.mon == nil {
		o.mon = monitor.New(monitor.Config{}, obs.Default)
	}
	if o.slo == nil {
		o.slo = slo.New(slo.Config{Objectives: defaultSLOObjectives(0.1, 0.99, 0.999)})
	}
	return o
}

// defaultSLOObjectives is the serving SLO pair: latency (fraction of
// /estimate requests completing within bound seconds) and availability
// (fraction not answered 5xx).
func defaultSLOObjectives(latencyBound, latencyTarget, availTarget float64) []slo.Objective {
	return []slo.Objective{
		{
			Name:      "latency",
			Target:    latencyTarget,
			Histogram: serving.E2EHistogram,
			Bound:     latencyBound,
		},
		{
			Name:          "availability",
			Target:        availTarget,
			TotalCounter:  "http.estimate.requests",
			ErrorCounters: []string{"http.estimate.5xx"},
		},
	}
}

// runServe serves the estimation API on ln until ctx ends or
// SIGINT/SIGTERM arrives, then shuts down gracefully (serveHTTP): stop
// accepting connections, let in-flight HTTP requests finish, and then drain
// the engine's queued batches before returning.
func runServe(ctx context.Context, ln net.Listener, m *core.Model, scfg serving.Config, pcfg serving.PlanConfig, opts serveOptions) error {
	opts = opts.withDefaults()
	// Every τ-sweep the batch workers compute is checked against the Lemma 2
	// monotonicity contract, and a model swap re-baselines the drift monitor.
	scfg.CurveCheck = func(curve []float64) { opts.mon.CheckCurve(curve) }
	reg, err := serving.NewRegistry(m, pcfg)
	if err != nil {
		return fmt.Errorf("compile model: %w", err)
	}
	reg.OnSwap(opts.mon.ResetBaseline)
	eng := serving.NewEngine(reg, scfg)

	// The autopilot closes the drift loop over this engine: it needs the
	// audit oracle for ground-truth labels, so -autopilot without an oracle
	// was already rejected in main.
	if opts.autopilotCfg != nil {
		pilot, err := autopilot.New(*opts.autopilotCfg, eng, opts.mon, oracleLabeler(opts.oracle))
		if err != nil {
			eng.Close()
			return err
		}
		opts.pilot = pilot
		pilot.Start()
		defer pilot.Close()
		log.Printf("autopilot: staging in %s, dwell %s, cooldown %s, shadow rate %g (min %d rows)",
			opts.autopilotCfg.Dir, opts.autopilotCfg.Dwell, opts.autopilotCfg.Cooldown,
			opts.autopilotCfg.ShadowRate, opts.autopilotCfg.ShadowMin)
	}

	// Telemetry rides the engine's lifecycle: runtime sampling and SLO
	// evaluation start before the listener and stop after drain, so shutdown
	// itself is observed.
	rsampler := runtimeobs.Start(runtimeobs.Config{Interval: opts.obsInterval})
	defer rsampler.Stop()
	opts.slo.Start()
	defer opts.slo.Stop()
	if opts.capturer != nil {
		defer opts.capturer.Wait() // let an in-flight profile pair finish writing
	}

	log.Printf("serving CardNet (in_dim=%d tau_max=%d, %d KB) on %s", m.InDim, m.Cfg.TauMax, eng.Registry().Current().ModelBytes/1024, ln.Addr())
	if g := eng.Precision(); g.Requested != infer.PrecisionF64 {
		log.Printf("precision: requested %s, serving %s — %s", g.Requested, g.Tier, g.Reason)
	}
	log.Printf("endpoints: POST/GET /estimate, POST /feedback, POST /admin/reload, /metrics, /healthz, /drift, /slo, /debug/pprof/")
	if opts.sampler != nil {
		log.Printf("trace sampling: 1 in %d requests", opts.sampler.Every())
	}
	if opts.oracle != nil && opts.auditRate > 0 {
		log.Printf("audit sampling: rate %g against exact oracle over %d records", opts.auditRate, opts.oracle.Len())
	}

	err = serveHTTP(ctx, ln, newServeMux(eng, opts), nil)
	eng.Close() // after Shutdown: no new requests, drain what is queued
	return err
}

// serveHTTP serves h on ln until ctx ends or SIGINT/SIGTERM arrives. It then
// runs drain, when set, while the listener still accepts, and shuts the
// server down gracefully: the listener closes and in-flight requests
// finish. The caller's own teardown runs after it returns. A failed Serve
// returns its error at once.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, drain func()) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining connections")
	if drain != nil {
		drain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// newServeMux builds the serving handler tree (separated from runServe for
// httptest coverage).
func newServeMux(eng *serving.Engine, opts serveOptions) *http.ServeMux {
	opts = opts.withDefaults()
	aud := newAuditor(opts.oracle, opts.mon, opts.auditRate, opts.pilot)
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", instrument("http.estimate", handleEstimate(eng, opts.sampler, aud)))
	mux.HandleFunc("/feedback", instrument("http.feedback", handleFeedback(eng, opts.mon, opts.pilot)))
	mux.HandleFunc("/admin/reload", instrument("http.reload", handleReload(eng)))
	mux.HandleFunc("/admin/autopilot", instrument("http.autopilot", handleAutopilot(opts.pilot)))
	mux.HandleFunc("/healthz", instrument("http.healthz", handleHealthz(eng, opts.mon, opts.slo, opts.pilot)))
	mux.HandleFunc("/drift", instrument("http.drift", handleDrift(eng, opts.mon)))
	mux.HandleFunc("/slo", instrument("http.slo", handleSLO(opts.slo)))
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// instrument times a handler into the "<name>.seconds" latency histogram
// and counts it in the "<name>.calls" counter on the default registry. Both
// are looked up once, when the mux is built, not on every request.
func instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	seconds := obs.Default.Histogram(name+".seconds", obs.TimeBuckets())
	calls := obs.Default.Counter(name + ".calls")
	return func(w http.ResponseWriter, r *http.Request) {
		t := obs.StartTimer(seconds)
		h(w, r)
		t.Stop()
		calls.Inc()
	}
}

// estimateResponse is the /estimate answer; writeEstimate writes it.
type estimateResponse struct {
	Estimate  *float64  `json:"estimate,omitempty"`
	Estimates []float64 `json:"estimates,omitempty"`
	Tau       int       `json:"tau"`
	TauMax    int       `json:"tau_max"`
}

func handleEstimate(eng *serving.Engine, sampler *obs.TraceSampler, aud *auditor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Every response carries the trace ID, sampled or not, so an operator
		// can correlate a slow client-side call with the JSONL trace log. When
		// a router fronts this replica, its fleet trace ID is adopted and its
		// attempt span recorded as this trace's parent — the join keys
		// `cardnet tracescan` assembles cross-process traces on.
		mEstimateRequests.Inc()
		tr := obs.NewTraceWith(r.Header.Get(obs.TraceHeader))
		tr.Annotate("role", "replica")
		if parent := r.Header.Get(obs.TraceParentHeader); parent != "" {
			tr.Annotate("parent", parent)
		}
		// A router that sampled this request says so; honor its decision
		// (head-based sampling) so both halves of the trace are emitted and
		// joinable. Direct traffic falls back to this replica's own counter.
		forced := sampler != nil && r.Header.Get(obs.TraceSampledHeader) == "1"
		w.Header().Set(obs.TraceHeader, tr.ID)
		finish := func() {
			mStageWrite.ObserveDuration(tr.Mark(serving.StageWrite))
			// The e2e exemplar ties each latency bucket to its latest trace,
			// so a /metrics scrape (or SLO page) resolves to a concrete trace.
			mE2E.ObserveExemplarDuration(tr.Total(), tr.ID)
			if forced || sampler.Sample() {
				mTraceSampled.Inc()
				sampler.Emit(tr)
			}
		}

		req, err := parseEstimateRequest(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			finish()
			return
		}
		cur := eng.Registry().Current()
		m, version := cur.Model, cur.Version
		if err := validateEstimateRequest(req, m); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			finish()
			return
		}
		mStageAdmission.ObserveDuration(tr.Mark(serving.StageAdmission))
		tr.Annotate("model_version", version)

		resp := estimateResponse{TauMax: m.Cfg.TauMax}
		if req.All {
			ests, err := eng.EstimateAllTraced(r.Context(), req.X, tr)
			if err != nil {
				estimateEngineError(w, err)
				finish()
				return
			}
			resp.Estimates = ests
			resp.Tau = m.Cfg.TauMax
		} else {
			v, err := eng.EstimateTraced(r.Context(), req.X, req.Tau, tr)
			if err != nil {
				estimateEngineError(w, err)
				finish()
				return
			}
			resp.Estimate = &v
			resp.Tau = req.Tau
			aud.observe(req.X, req.Tau, v)
		}
		writeEstimate(w, resp)
		finish()
	}
}

// auditor replays a sampled fraction of live estimates against an exact
// simselect oracle off the request path, feeding the resulting q-errors to
// the drift monitor as Audit samples — ground truth without waiting for
// labelled feedback. In-flight replays are bounded; excess samples are
// dropped (and counted) rather than queued behind the oracle scan.
type auditor struct {
	oracle *simselect.EncodedOracle
	mon    *monitor.Monitor
	pilot  *autopilot.Pilot // audited queries double as retrain samples
	every  uint64
	seq    atomic.Uint64
	sem    chan struct{}
}

// newAuditor returns nil (auditing off) unless an oracle, a monitor, and a
// rate in (0, 1] are all present. Like the trace sampler, sampling is
// counter-based: 1 in round(1/rate) estimates.
func newAuditor(oracle *simselect.EncodedOracle, mon *monitor.Monitor, rate float64, pilot *autopilot.Pilot) *auditor {
	if oracle == nil || mon == nil || rate <= 0 || rate > 1 {
		return nil
	}
	every := uint64(1/rate + 0.5)
	if every < 1 {
		every = 1
	}
	return &auditor{oracle: oracle, mon: mon, pilot: pilot, every: every, sem: make(chan struct{}, 4)}
}

// observe maybe replays one served estimate. Nil-safe; never blocks the
// request path. The x slice is safe to share: DecodeQuery and ParseX make
// it fresh for each request, and the handler stops touching it once the
// response is built.
func (a *auditor) observe(x []float64, tau int, estimate float64) {
	if a == nil || a.seq.Add(1)%a.every != 0 {
		return
	}
	select {
	case a.sem <- struct{}{}:
	default:
		mAuditDropped.Inc()
		return
	}
	go func() {
		defer func() { <-a.sem }()
		actual, err := a.oracle.CountEncoded(x, tau)
		if err != nil {
			mAuditDropped.Inc()
			return
		}
		a.mon.Record(float64(actual), estimate, monitor.Audit)
		if a.pilot != nil {
			a.pilot.Observe(x, tau)
		}
	}()
}

// parseEstimateRequest decodes the wire formats: a POST body, read as the
// router reads it (cluster.ReadQuery), or a GET query, ?x=1,0,1,…&tau=3 (or
// &all=true). Semantic checks live in validateEstimateRequest so GET and
// POST share them.
func parseEstimateRequest(r *http.Request) (cluster.Query, error) {
	switch r.Method {
	case http.MethodPost:
		_, q, err := cluster.ReadQuery(r)
		return q, err
	case http.MethodGet:
		q := r.URL.Query()
		x, err := cluster.ParseX(q.Get("x"))
		if err != nil {
			return cluster.Query{}, err
		}
		req := cluster.Query{X: x, All: q.Get("all") == "true" || q.Get("all") == "1"}
		if ts := q.Get("tau"); ts != "" {
			if req.Tau, err = strconv.Atoi(ts); err != nil {
				return cluster.Query{}, fmt.Errorf("bad tau %q", ts)
			}
			req.HasTau = true
		}
		return req, nil
	default:
		return cluster.Query{}, fmt.Errorf("method %s not allowed", r.Method)
	}
}

// validateEstimateRequest enforces the model's input contract up front so
// malformed queries fail with a deterministic 400 instead of reaching the
// engine: x present and exactly InDim wide, strictly binary components, and
// τ within [0, TauMax] unless the full curve is requested.
func validateEstimateRequest(req cluster.Query, m *core.Model) error {
	if len(req.X) == 0 {
		return errors.New(`"x" is required`)
	}
	if len(req.X) != m.InDim {
		return fmt.Errorf("x has %d features, model expects %d", len(req.X), m.InDim)
	}
	for i, v := range req.X {
		if v != 0 && v != 1 { // also rejects NaN/Inf
			return fmt.Errorf("x[%d] = %v, encoded features must be binary 0/1", i, v)
		}
	}
	if req.All {
		return nil
	}
	if !req.HasTau {
		return errors.New(`"tau" is required unless "all" is set`)
	}
	if req.Tau < 0 || req.Tau > m.Cfg.TauMax {
		return fmt.Errorf("tau %d outside [0, %d]", req.Tau, m.Cfg.TauMax)
	}
	return nil
}

// handleFeedback takes a query the caller executed for real, {x, tau,
// actual} with the actual cardinality observed: it re-estimates the query
// and folds the q-error into the drift monitor. An "all" member is ignored.
func handleFeedback(eng *serving.Engine, mon *monitor.Monitor, pilot *autopilot.Pilot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		_, req, err := cluster.ReadQuery(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		req.All = false
		m := eng.Registry().Current().Model
		if err := validateEstimateRequest(req, m); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !req.HasActual {
			httpError(w, http.StatusBadRequest, `"actual" is required`)
			return
		}
		if req.Actual < 0 || math.IsNaN(req.Actual) || math.IsInf(req.Actual, 0) {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("actual %v, want a finite non-negative count", req.Actual))
			return
		}
		est, err := eng.Estimate(r.Context(), req.X, req.Tau)
		if err != nil {
			httpEngineError(w, err)
			return
		}
		q := mon.Record(req.Actual, est, monitor.Feedback)
		if pilot != nil {
			// Labelled feedback is exactly the traffic a retrain should fit:
			// the caller ran the query for real.
			pilot.Observe(req.X, req.Tau)
		}
		writeJSON(w, map[string]any{
			"estimate": est,
			"actual":   req.Actual,
			"tau":      req.Tau,
			"qerror":   q,
			"drift":    mon.Status().Status,
		})
	}
}

// handleDrift reports the monitor's view of model quality: rolling q-error
// quantiles, EWMA vs the post-load baseline, monotonicity-violation counts,
// and the ok/warn/retrain-recommended verdict.
func handleDrift(eng *serving.Engine, mon *monitor.Monitor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		version := eng.Registry().Current().Version
		writeJSON(w, struct {
			monitor.Status
			ModelVersion uint64 `json:"model_version"`
		}{mon.Status(), version})
	}
}

// reloadRequest is the POST /admin/reload body: the path of a model file
// saved by `cardnet -mode train` / `-mode update`.
type reloadRequest struct {
	Path string `json:"path"`
}

// handleReload hot-swaps the serving model: load the file, validate shape
// compatibility against the live model, and install it atomically. In-flight
// batches finish on the model they started with; the estimate cache is
// invalidated so no stale estimate survives the swap.
func handleReload(eng *serving.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req reloadRequest
		if err := cluster.ReadJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Path == "" {
			httpError(w, http.StatusBadRequest, `"path" is required`)
			return
		}
		m, err := checkpoint.LoadModel(req.Path)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("load model: %v", err))
			return
		}
		s, err := eng.Registry().Prepare(m)
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		version := eng.Registry().Publish(s)
		log.Printf("reloaded model from %s (version %d, %d KB)", req.Path, version, s.ModelBytes/1024)
		writeJSON(w, map[string]any{
			"version":     version,
			"in_dim":      m.InDim,
			"tau_max":     m.Cfg.TauMax,
			"tau_top":     m.TauTop,
			"model_bytes": s.ModelBytes,
		})
	}
}

func handleHealthz(eng *serving.Engine, mon *monitor.Monitor, tracker *slo.Tracker, pilot *autopilot.Pilot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cur := eng.Registry().Current()
		m, version := cur.Model, cur.Version
		// Subsystem verdicts are nested objects of uniform shape — a "status"
		// (or "state") verdict plus that subsystem's key numbers — matching
		// the precision block, so fleet tooling indexes "<block>.status"
		// instead of special-casing flat and nested keys per subsystem.
		level, since := mon.LevelSince()
		drift := map[string]any{
			"status":              mon.Status().Status,
			"level":               level,
			"level_since_seconds": time.Since(since).Seconds(),
		}
		if since.IsZero() {
			drift["level_since_seconds"] = 0.0
		}
		body := map[string]any{
			"status":             "ok",
			"drift":              drift,
			"slo":                tracker.State().String(),
			"version":            buildVersion,
			"git_sha":            buildSHA,
			"start_time_seconds": float64(runtimeobs.StartTime().UnixNano()) / 1e9,
			"in_dim":             m.InDim,
			"tau_max":            m.Cfg.TauMax,
			"tau_top":            m.TauTop,
			"accel":              m.Cfg.Accel,
			"model_bytes":        cur.ModelBytes,
			"model_version":      version,
			"cache_entries":      eng.CacheLen(),
			"precision":          cur.Gate,
			// The router's fleet view reads these two: the request count,
			// and the e2e histogram whose deltas give QPS and p99.
			"estimate_requests": mEstimateRequests.Value(),
			"e2e":               mE2E.Snapshot(),
		}
		if pilot != nil {
			body["autopilot"] = pilot.Status()
		}
		writeJSON(w, body)
	}
}

// autopilotRequest is the POST /admin/autopilot body. Actions: "force" (arm
// an immediate trigger, bypassing drift dwell), "inhibit" (pause autonomous
// retrains and swaps), "resume" (lift an inhibit). GET returns the status.
type autopilotRequest struct {
	Action string `json:"action"`
}

func handleAutopilot(pilot *autopilot.Pilot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if pilot == nil {
			httpError(w, http.StatusNotFound, "autopilot not enabled (start with -autopilot)")
			return
		}
		switch r.Method {
		case http.MethodGet:
		case http.MethodPost:
			var req autopilotRequest
			if err := cluster.ReadJSON(r, &req); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			switch req.Action {
			case "force":
				pilot.Force()
			case "inhibit":
				pilot.SetInhibited(true)
			case "resume":
				pilot.SetInhibited(false)
			default:
				httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown action %q (want force, inhibit, or resume)", req.Action))
				return
			}
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
			return
		}
		writeJSON(w, pilot.Status())
	}
}

// oracleLabeler adapts the audit oracle's exact curve scan to the autopilot's
// Labeler contract.
func oracleLabeler(o *simselect.EncodedOracle) autopilot.Labeler {
	return func(x []float64, tauTop int) ([]float64, error) {
		return o.CurveEncoded(x, tauTop)
	}
}

// handleSLO reports the burn-rate tracker's current view: overall state,
// window configuration, and per-objective burn rates — the machine-readable
// face of the ok|warn|page alerting in RUNBOOK.md.
func handleSLO(tracker *slo.Tracker) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, tracker.Status())
	}
}

// handleMetrics dumps the obs default registry: expvar-style JSON by
// default, Prometheus text exposition format 0.0.4 when the Accept header
// asks for text/plain (so a stock Prometheus scraper works against the same
// endpoint with no config beyond the target), and OpenMetrics — with
// trace-ID exemplars on the latency histograms — when it asks for
// application/openmetrics-text.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		if err := obs.Default.WriteOpenMetrics(w); err != nil {
			httpErrors.Inc()
		}
		return
	}
	if strings.Contains(accept, "text/plain") {
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := obs.Default.WritePrometheus(w); err != nil {
			httpErrors.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.Default.WriteJSON(w); err != nil {
		httpErrors.Inc()
	}
}

// httpEngineError maps engine failures onto status codes: overload and
// shutdown become 503 (degrade gracefully, clients retry), deadline
// expiry becomes 504, and anything else validation missed is a 400. It
// returns the status written so callers can classify the failure.
func httpEngineError(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, serving.ErrOverloaded), errors.Is(err, serving.ErrClosed):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err.Error())
		return http.StatusGatewayTimeout
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	}
}

// estimateEngineError is httpEngineError for the /estimate path: 5xx
// responses additionally burn the availability SLO's error budget.
func estimateEngineError(w http.ResponseWriter, err error) {
	if code := httpEngineError(w, err); code >= 500 {
		mEstimate5xx.Inc()
	}
}

// estimateBufs pools the buffers writeEstimate builds responses in.
var estimateBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeEstimate writes resp byte for byte as writeJSON would, without
// reflection. A non-finite estimate, which JSON cannot carry, goes to
// writeJSON, whose encoder fails and counts the error.
func writeEstimate(w http.ResponseWriter, resp estimateResponse) {
	bp := estimateBufs.Get().(*[]byte)
	defer estimateBufs.Put(bp)
	b, ok := appendEstimate((*bp)[:0], resp)
	*bp = b
	if !ok {
		writeJSON(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		httpErrors.Inc()
	}
}

// appendEstimate appends resp as json.Encoder encodes it, trailing newline
// included; ok is false when an estimate is not finite.
func appendEstimate(b []byte, resp estimateResponse) (_ []byte, ok bool) {
	ok = true
	num := func(v float64) {
		ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		b = appendJSONFloat(b, v)
	}
	b = append(b, '{')
	if resp.Estimate != nil {
		b = append(b, `"estimate":`...)
		num(*resp.Estimate)
		b = append(b, ',')
	}
	if len(resp.Estimates) > 0 {
		b = append(b, `"estimates":[`...)
		for i, v := range resp.Estimates {
			if i > 0 {
				b = append(b, ',')
			}
			num(v)
		}
		b = append(b, "],"...)
	}
	b = append(b, `"tau":`...)
	b = strconv.AppendInt(b, int64(resp.Tau), 10)
	b = append(b, `,"tau_max":`...)
	b = strconv.AppendInt(b, int64(resp.TauMax), 10)
	return append(b, "}\n"...), ok
}

// appendJSONFloat formats a finite v as encoding/json does: like ES6, the
// shortest round-trip digits, exponent form below 1e-6 and from 1e21 on,
// and no zero padding in a negative exponent.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		httpErrors.Inc()
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
