package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/slo"
)

// ReplicaHealth is one replica's probed state as the router sees it.
type ReplicaHealth struct {
	// Base is the replica's base URL (http://host:port).
	Base string `json:"base"`
	// Healthy reports ring membership: false once EjectAfter consecutive
	// probes failed, true again after the first success.
	Healthy bool `json:"healthy"`
	// Fails counts consecutive failed probes (0 when healthy).
	Fails int `json:"fails"`
	// LastErr is the latest probe error, "" when the last probe succeeded.
	LastErr string `json:"last_err,omitempty"`
	// Status, Drift, and SLO mirror the replica's /healthz fields.
	Status string `json:"status,omitempty"`
	Drift  string `json:"drift,omitempty"`
	SLO    string `json:"slo,omitempty"`
	// Build is the replica's build identity from its /healthz: version plus
	// the first 8 characters of git_sha, e.g. "v1.2 (1a2b3c4d)".
	Build string `json:"build,omitempty"`
	// ModelVersion is the replica's serving-registry version (rollouts bump
	// it via /admin/reload).
	ModelVersion uint64 `json:"model_version"`
	// EstimateRequests is the replica's cumulative /estimate request counter,
	// the estimate_requests field of its /healthz.
	EstimateRequests float64 `json:"estimate_requests"`
	// QPS is the rate of requests completing on the replica between its
	// last two successful sweeps: the count delta of the e2e histogram on
	// its /healthz over the measured time between them. 0 until a second
	// sweep lands, and 0 while either sweep's e2e is missing or malformed.
	QPS float64 `json:"qps"`
	// P99Seconds is the e2e latency p99 of the requests that completed
	// between the same two sweeps. Absent when QPS has no base, when the
	// histogram's bucket layout changed between them, and when no request
	// completed in between.
	P99Seconds float64 `json:"p99_seconds,omitempty"`
}

// replicaState is one replica's health plus the e2e histogram of its last
// successful sweep (nil before one, or when that sweep's was missing or
// malformed) and that sweep's time: the base of the next sweep's QPS and p99.
type replicaState struct {
	ReplicaHealth
	last   *obs.HistSnapshot
	lastAt time.Time
}

// e2eSnapshot decodes the e2e histogram of a replica's /healthz document
// (serving.E2EHistogram's snapshot). It returns nil when the field is
// absent or is not a latency histogram: bounds that are not finite,
// non-negative and ascending, or cumulative counts that fall or pass the
// count.
func e2eSnapshot(doc map[string]any) *obs.HistSnapshot {
	field, ok := doc["e2e"].(map[string]any)
	if !ok {
		return nil
	}
	raw, err := json.Marshal(field)
	var s obs.HistSnapshot
	if err != nil || json.Unmarshal(raw, &s) != nil || s.BucketCounts() == nil {
		return nil
	}
	lo := 0.0
	for _, b := range s.Buckets {
		if !(b.UpperBound >= lo) || math.IsInf(b.UpperBound, 1) {
			return nil
		}
		lo = b.UpperBound
	}
	return &s
}

// e2eRates derives a replica's QPS and p99 from its e2e histogram at two
// sweeps dt apart. A count that went down (the replica restarted between
// sweeps) clamps to 0; p99 is 0 when the bucket layout changed or nothing
// completed.
func e2eRates(prev, cur obs.HistSnapshot, dt time.Duration) (qps, p99 float64) {
	if dt > 0 && cur.Count > prev.Count {
		qps = float64(cur.Count-prev.Count) / dt.Seconds()
	}
	base, counts := prev.BucketCounts(), cur.BucketCounts()
	if base == nil || counts == nil || len(base) != len(counts) {
		return qps, 0
	}
	bounds := make([]float64, len(cur.Buckets))
	for i, b := range cur.Buckets {
		if b.UpperBound != prev.Buckets[i].UpperBound {
			return qps, 0
		}
		bounds[i] = b.UpperBound
	}
	for i := range counts {
		counts[i] = math.Max(0, counts[i]-base[i])
	}
	return qps, slo.BucketQuantile(bounds, counts, 0.99)
}

// ProberConfig tunes the health prober. Zero values take the documented
// defaults.
type ProberConfig struct {
	// Interval between probe sweeps (default 2s).
	Interval time.Duration
	// EjectAfter is the consecutive-failure threshold that ejects a replica
	// (default 3).
	EjectAfter int
	// Client issues the probes; nil uses the shared obs client (5s
	// timeout) obs.GatherJSON defaults to, the rollout controller's too.
	Client *http.Client
	// OnChange, when set, fires on every health transition (ejection and
	// restoration). The router wires ring membership here. Called without
	// the prober's lock held.
	OnChange func(base string, healthy bool)
	// Registry receives prober metrics (nil uses obs.Default).
	Registry *obs.Registry
}

// Prober drives periodic /healthz probes of a fixed replica set, one GET
// per replica per sweep, and tracks per-replica health with
// consecutive-failure ejection. Replicas
// start healthy (optimistic: the router can route before the first sweep);
// the probe loop then converges the view within EjectAfter intervals.
type Prober struct {
	cfg    ProberConfig
	bases  []string
	client *http.Client

	mu     sync.Mutex
	states map[string]*replicaState

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool

	mSweeps   *obs.Counter
	mEject    *obs.Counter
	mRestore  *obs.Counter
	gHealthy  *obs.Gauge
	gReplicas *obs.Gauge
}

// NewProber builds an unstarted prober over the replica base URLs.
func NewProber(bases []string, cfg ProberConfig) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	p := &Prober{
		cfg:       cfg,
		bases:     append([]string(nil), bases...),
		client:    cfg.Client,
		states:    make(map[string]*replicaState, len(bases)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		mSweeps:   reg.Counter("cluster.probe.sweeps"),
		mEject:    reg.Counter("cluster.replica.ejections"),
		mRestore:  reg.Counter("cluster.replica.restores"),
		gHealthy:  reg.Gauge("cluster.replicas.healthy"),
		gReplicas: reg.Gauge("cluster.replicas.configured"),
	}
	sort.Strings(p.bases)
	for _, b := range p.bases {
		p.states[b] = &replicaState{ReplicaHealth: ReplicaHealth{Base: b, Healthy: true}}
	}
	p.gReplicas.Set(float64(len(p.bases)))
	p.gHealthy.Set(float64(len(p.bases)))
	return p
}

// Start launches the periodic probe loop; Stop ends it. Each sweep gets at
// least probeTimeoutFloor regardless of how aggressive the interval is — a
// sub-second interval must speed up *detection*, not make a loaded replica
// look dead because it needed 50ms to answer /healthz.
func (p *Prober) Start() {
	p.mu.Lock()
	p.started = true
	p.mu.Unlock()
	timeout := p.cfg.Interval
	if timeout < probeTimeoutFloor {
		timeout = probeTimeoutFloor
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				p.ProbeOnce(ctx)
				cancel()
			}
		}
	}()
}

// probeTimeoutFloor is the minimum per-sweep probe deadline.
const probeTimeoutFloor = 2 * time.Second

// Stop ends the probe loop and waits for it to exit. Safe to call more than
// once, and safe on a never-started prober.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.mu.Lock()
	started := p.started
	p.mu.Unlock()
	if started {
		<-p.done
	}
}

// ProbeOnce runs one probe sweep: every replica's /healthz is fetched
// concurrently through obs.GatherJSON, and health states advance (exported
// so tests and the router's bench can drive probing deterministically).
func (p *Prober) ProbeOnce(ctx context.Context) {
	p.mSweeps.Inc()
	urls := make([]string, len(p.bases))
	for i, b := range p.bases {
		urls[i] = b + "/healthz"
	}
	hz := obs.GatherJSON(ctx, p.client, urls)
	now := time.Now()

	type change struct {
		base    string
		healthy bool
	}
	var changes []change
	p.mu.Lock()
	healthy := 0
	for i, b := range p.bases {
		st := p.states[b]
		if err := hz[i].Err; err != nil {
			st.LastErr = err.Error()
			st.Fails++
			if st.Healthy && st.Fails >= p.cfg.EjectAfter {
				st.Healthy = false
				p.mEject.Inc()
				changes = append(changes, change{b, false})
			}
		} else {
			st.LastErr = ""
			st.Fails = 0
			st.Status = jsonString(hz[i].Doc, "status")
			st.Drift = jsonNestedString(hz[i].Doc, "drift", "status")
			st.SLO = jsonString(hz[i].Doc, "slo")
			st.Build = buildString(hz[i].Doc)
			if mv, ok := hz[i].Doc["model_version"].(float64); ok {
				st.ModelVersion = uint64(mv)
			}
			st.EstimateRequests, _ = hz[i].Doc["estimate_requests"].(float64)
			e2e := e2eSnapshot(hz[i].Doc)
			st.QPS, st.P99Seconds = 0, 0
			if st.last != nil && e2e != nil {
				st.QPS, st.P99Seconds = e2eRates(*st.last, *e2e, now.Sub(st.lastAt))
			}
			st.last, st.lastAt = e2e, now
			if !st.Healthy {
				st.Healthy = true
				p.mRestore.Inc()
				changes = append(changes, change{b, true})
			}
		}
		if st.Healthy {
			healthy++
		}
	}
	p.gHealthy.Set(float64(healthy))
	p.mu.Unlock()

	if p.cfg.OnChange != nil {
		for _, c := range changes {
			p.cfg.OnChange(c.base, c.healthy)
		}
	}
}

// Snapshot returns a copy of every replica's state, sorted by base URL.
func (p *Prober) Snapshot() []ReplicaHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaHealth, 0, len(p.bases))
	for _, b := range p.bases {
		out = append(out, p.states[b].ReplicaHealth)
	}
	return out
}

// Healthy returns the currently healthy replica base URLs, sorted.
func (p *Prober) Healthy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, b := range p.bases {
		if p.states[b].Healthy {
			out = append(out, b)
		}
	}
	return out
}

// jsonString reads a string field from a decoded JSON document.
func jsonString(doc map[string]any, key string) string {
	s, _ := doc[key].(string)
	return s
}

// buildString renders a /healthz document's build identity: version, plus
// git_sha cut to 8 characters in parentheses when the replica reports one.
func buildString(doc map[string]any) string {
	b := jsonString(doc, "version")
	if sha := jsonString(doc, "git_sha"); sha != "" {
		b = strings.TrimSpace(b + " (" + sha[:min(len(sha), 8)] + ")")
	}
	return b
}

// jsonNestedString reads doc[key][sub] from a nested healthz block (the
// uniform `"<subsystem>": {"status": ...}` shape). A flat string at key — an
// older replica mid-rolling-upgrade — is accepted as the verdict itself.
func jsonNestedString(doc map[string]any, key, sub string) string {
	switch v := doc[key].(type) {
	case map[string]any:
		s, _ := v[sub].(string)
		return s
	case string:
		return v
	default:
		return ""
	}
}
