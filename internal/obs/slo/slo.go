// Package slo evaluates service-level objectives against the metrics the
// serving layer already records, using the multi-window burn-rate method:
// the rate at which the error budget is being consumed is measured over a
// fast window (default 5m, catches incidents quickly) and a slow window
// (default 1h, suppresses blips), and an alert state is raised only when
// both windows agree. States are ok → warn → page; every transition is
// counted, mirrored into gauges, optionally written to a JSONL sink, and
// delivered to a callback — `cardnet serve` wires that callback to
// triggered profile capture (internal/obs/profcap).
//
// Two objective kinds are supported, both read straight from an
// obs.Registry with no new instrumentation on the hot path:
//
//   - latency: "fraction of requests completing within Bound seconds ≥
//     Target", evaluated from a histogram's cumulative buckets (the good
//     count is the cumulative count at the smallest bucket bound ≥ Bound, so
//     the effective bound snaps to the histogram's resolution);
//   - availability: "fraction of requests not failing ≥ Target", evaluated
//     from a total counter minus error counters (5xx/503 in serving).
//
// Burn rate is (window error rate) / (1 − Target): burning at exactly 1.0
// exhausts the budget precisely at the period's end; the default thresholds
// warn at 1 and page at 10.
package slo

import (
	"sync"
	"time"

	"cardnet/internal/obs"
)

// State is an objective's alert level, ordered by severity.
type State int

// Alert states.
const (
	StateOK   State = iota // burning budget at a sustainable rate
	StateWarn              // both windows burning above Config.WarnRate
	StatePage              // both windows burning above Config.PageRate
)

// String renders the state as its wire form: ok, warn, page.
func (s State) String() string {
	switch s {
	case StatePage:
		return "page"
	case StateWarn:
		return "warn"
	default:
		return "ok"
	}
}

// Objective is one SLO. Exactly one of Histogram (latency kind) or
// TotalCounter (availability kind) must be set.
type Objective struct {
	// Name labels the objective in /slo, metrics, and events.
	Name string
	// Target is the good-event fraction promised, e.g. 0.99 (99% of
	// requests within the latency bound) or 0.999 availability.
	Target float64

	// Histogram names the latency histogram in the registry (latency kind).
	Histogram string
	// Bound is the latency objective's threshold in seconds: observations
	// at or under it are good.
	Bound float64

	// TotalCounter names the total-events counter (availability kind).
	TotalCounter string
	// ErrorCounters name the counters whose sum is the bad-event count.
	ErrorCounters []string
}

// Transition describes one state change of one objective.
type Transition struct {
	Objective string    `json:"objective"`
	From      string    `json:"from"`
	To        string    `json:"to"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
	At        time.Time `json:"at"`
	// ExemplarTraceID is the trace behind the breach for latency objectives:
	// the histogram's exemplar above the objective's bound, i.e. a concrete
	// slow request an operator can look up in the trace log (`cardnet
	// tracescan`) instead of starting from an aggregate.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
}

// Config tunes a Tracker. Zero values take the documented defaults.
type Config struct {
	// Registry holds the metrics the objectives read and receives the
	// tracker's own gauges/counters (default obs.Default).
	Registry *obs.Registry
	// Objectives are the SLOs to evaluate.
	Objectives []Objective
	// Interval is the evaluation period (default 5s).
	Interval time.Duration
	// FastWindow is the short burn-rate window (default 5m).
	FastWindow time.Duration
	// SlowWindow is the long burn-rate window (default 1h).
	SlowWindow time.Duration
	// WarnRate is the burn rate at which both windows must agree to enter
	// warn (default 1).
	WarnRate float64
	// PageRate is the burn rate at which both windows must agree to enter
	// page (default 10).
	PageRate float64
	// P99Threshold, when > 0, fires OnP99 whenever a latency objective's
	// fast-window p99 exceeds it (seconds) — the profile-capture trigger
	// independent of budget burn.
	P99Threshold float64
	// Sink, when set, receives one "slo.transition" JSONL event per state
	// change.
	Sink *obs.Sink
	// OnTransition, when set, is called (on the evaluation goroutine) for
	// every state change.
	OnTransition func(Transition)
	// OnP99, when set, is called when a latency objective's fast-window p99
	// exceeds P99Threshold.
	OnP99 func(objective string, p99 float64)
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = time.Hour
		if c.SlowWindow < c.FastWindow {
			c.SlowWindow = c.FastWindow
		}
	}
	if c.WarnRate <= 0 {
		c.WarnRate = 1
	}
	if c.PageRate <= c.WarnRate {
		c.PageRate = 10
		if c.PageRate <= c.WarnRate {
			c.PageRate = c.WarnRate * 2
		}
	}
	return c
}

// sample is one cumulative observation of an objective's source metrics.
type sample struct {
	t       time.Time
	good    float64
	total   float64
	buckets []float64 // latency kind: per-bucket (non-cumulative) counts incl. overflow
}

// objectiveState tracks one objective's ring of samples and current state.
type objectiveState struct {
	obj    Objective
	hist   *obs.Histogram
	bounds []float64 // histogram bucket upper bounds (finite ones)
	total  *obs.Counter
	errs   []*obs.Counter

	ring []sample
	n    int // filled
	idx  int // next write

	state               State
	fastBurn, slowBurn  float64
	fastRate, slowRate  float64
	fastP99             float64
	fastGood, fastTotal float64

	gState *obs.Gauge
	gFast  *obs.Gauge
	gSlow  *obs.Gauge
}

// Tracker evaluates objectives on a fixed cadence. Build with New, start the
// loop with Start, stop with Stop; Eval is exported for deterministic tests
// and benchmarks.
type Tracker struct {
	cfg Config

	mu      sync.Mutex
	objs    []*objectiveState
	overall State

	cTransitions *obs.Counter
	gOverall     *obs.Gauge

	stop chan struct{}
	done chan struct{}
}

// New builds a tracker over cfg.Registry without starting the loop.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	t := &Tracker{
		cfg:          cfg,
		cTransitions: reg.Counter("slo.transitions"),
		gOverall:     reg.Gauge("slo.state"),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	// Ring capacity: enough samples to cover the slow window at the eval
	// cadence, plus slack for the baseline lookup; capped to bound memory.
	capacity := int(cfg.SlowWindow/cfg.Interval) + 4
	if capacity > 8192 {
		capacity = 8192
	}
	for _, o := range cfg.Objectives {
		st := &objectiveState{
			obj:    o,
			ring:   make([]sample, capacity),
			gState: reg.Gauge("slo." + o.Name + ".state"),
			gFast:  reg.Gauge("slo." + o.Name + ".burn_fast"),
			gSlow:  reg.Gauge("slo." + o.Name + ".burn_slow"),
		}
		if o.Histogram != "" {
			st.hist = reg.Histogram(o.Histogram, obs.TimeBuckets())
		} else {
			st.total = reg.Counter(o.TotalCounter)
			for _, e := range o.ErrorCounters {
				st.errs = append(st.errs, reg.Counter(e))
			}
		}
		t.objs = append(t.objs, st)
	}
	return t
}

// Start begins periodic evaluation.
func (t *Tracker) Start() {
	go t.loop()
}

// Stop halts the evaluation loop and waits for it to exit. Only valid after
// Start.
func (t *Tracker) Stop() {
	close(t.stop)
	<-t.done
}

func (t *Tracker) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.Eval(time.Now())
		case <-t.stop:
			return
		}
	}
}

// Eval runs one evaluation pass at the given instant: snapshot every
// objective's cumulative counts, compute fast/slow-window burn rates, update
// states, and emit transitions. Exported so tests and benchmarks can drive
// the tracker with a synthetic clock.
func (t *Tracker) Eval(now time.Time) {
	type p99Breach struct {
		obj string
		p99 float64
	}
	var transitions []Transition
	var p99Breaches []p99Breach

	t.mu.Lock()
	overall := StateOK
	for _, st := range t.objs {
		cur := t.observe(st, now)
		st.push(cur)

		fast := st.window(now, t.cfg.FastWindow, cur)
		slow := st.window(now, t.cfg.SlowWindow, cur)
		budget := 1 - st.obj.Target
		if budget <= 0 {
			budget = 1e-9
		}
		st.fastRate, st.slowRate = fast.errRate, slow.errRate
		st.fastBurn, st.slowBurn = fast.errRate/budget, slow.errRate/budget
		st.fastGood, st.fastTotal = fast.good, fast.total
		st.fastP99 = fast.p99

		next := StateOK
		switch {
		case st.fastBurn >= t.cfg.PageRate && st.slowBurn >= t.cfg.PageRate:
			next = StatePage
		case st.fastBurn >= t.cfg.WarnRate && st.slowBurn >= t.cfg.WarnRate:
			next = StateWarn
		}
		if next != st.state {
			tr := Transition{
				Objective: st.obj.Name,
				From:      st.state.String(),
				To:        next.String(),
				FastBurn:  st.fastBurn,
				SlowBurn:  st.slowBurn,
				At:        now,
			}
			// A worsening latency objective names its culprit: the slowest
			// traced observation beyond the bound.
			if st.hist != nil && next > st.state {
				if ex, ok := st.hist.ExemplarAbove(st.obj.Bound); ok {
					tr.ExemplarTraceID = ex.TraceID
				}
			}
			transitions = append(transitions, tr)
			st.state = next
		}
		if st.obj.Histogram != "" && t.cfg.P99Threshold > 0 && fast.p99 > t.cfg.P99Threshold {
			p99Breaches = append(p99Breaches, p99Breach{obj: st.obj.Name, p99: fast.p99})
		}
		if st.state > overall {
			overall = st.state
		}
		st.gState.Set(float64(st.state))
		st.gFast.Set(st.fastBurn)
		st.gSlow.Set(st.slowBurn)
	}
	t.overall = overall
	t.gOverall.Set(float64(overall))
	t.mu.Unlock()

	// Deliver events outside the lock: callbacks may call Status.
	for _, tr := range transitions {
		t.cTransitions.Inc()
		if t.cfg.Sink != nil {
			fields := map[string]any{
				"objective": tr.Objective,
				"from":      tr.From,
				"to":        tr.To,
				"fast_burn": tr.FastBurn,
				"slow_burn": tr.SlowBurn,
			}
			if tr.ExemplarTraceID != "" {
				fields["exemplar_trace_id"] = tr.ExemplarTraceID
			}
			t.cfg.Sink.Emit("slo.transition", fields)
		}
		if t.cfg.OnTransition != nil {
			t.cfg.OnTransition(tr)
		}
	}
	if t.cfg.OnP99 != nil {
		for _, b := range p99Breaches {
			t.cfg.OnP99(b.obj, b.p99)
		}
	}
}

// observe reads one objective's current cumulative counts.
func (t *Tracker) observe(st *objectiveState, now time.Time) sample {
	s := sample{t: now}
	if st.hist != nil {
		snap := st.hist.Snapshot()
		if st.bounds == nil {
			for _, b := range snap.Buckets {
				st.bounds = append(st.bounds, b.UpperBound)
			}
		}
		s.buckets = snap.BucketCounts()
		s.total = float64(snap.Count)
		s.good = s.total // bound above every bucket: everything counts as good
		if i := goodBucketIndex(st.bounds, st.obj.Bound); i >= 0 {
			s.good = float64(snap.Buckets[i].Count)
		}
		return s
	}
	s.total = float64(st.total.Value())
	bad := 0.0
	for _, e := range st.errs {
		bad += float64(e.Value())
	}
	s.good = s.total - bad
	if s.good < 0 {
		s.good = 0
	}
	return s
}

// goodBucketIndex returns the index of the smallest bucket bound ≥ bound
// (the bucket whose cumulative count is the good count), or -1 when the
// bound exceeds every bucket.
func goodBucketIndex(bounds []float64, bound float64) int {
	for i, b := range bounds {
		if b >= bound {
			return i
		}
	}
	return -1
}

func (st *objectiveState) push(s sample) {
	st.ring[st.idx] = s
	st.idx = (st.idx + 1) % len(st.ring)
	if st.n < len(st.ring) {
		st.n++
	}
}

// windowStats is one window's delta view.
type windowStats struct {
	good, total float64
	errRate     float64
	p99         float64
}

// window computes the delta between the current sample and the newest
// sample at least `window` old. A process younger than the window uses its
// oldest sample — standard practice so fresh replicas still alert, at the
// cost of slightly optimistic slow windows early on.
func (st *objectiveState) window(now time.Time, window time.Duration, cur sample) windowStats {
	base := st.baseline(now.Add(-window))
	w := windowStats{
		good:  cur.good - base.good,
		total: cur.total - base.total,
	}
	if w.total > 0 {
		w.errRate = (w.total - w.good) / w.total
		if w.errRate < 0 {
			w.errRate = 0
		}
	}
	if cur.buckets != nil && base.buckets != nil && len(base.buckets) == len(cur.buckets) {
		delta := make([]float64, len(cur.buckets))
		for i := range delta {
			delta[i] = cur.buckets[i] - base.buckets[i]
		}
		w.p99 = BucketQuantile(st.bounds, delta, 0.99)
	} else if cur.buckets != nil {
		w.p99 = BucketQuantile(st.bounds, cur.buckets, 0.99)
	}
	return w
}

// baseline returns the newest ring sample with t ≤ cutoff, or the oldest
// sample available (zero sample when the ring is empty).
func (st *objectiveState) baseline(cutoff time.Time) sample {
	var best sample
	found := false
	oldest := sample{}
	oldestSet := false
	for i := 0; i < st.n; i++ {
		s := st.ring[(st.idx-1-i+len(st.ring))%len(st.ring)] // newest → oldest
		if !oldestSet || s.t.Before(oldest.t) {
			oldest, oldestSet = s, true
		}
		if !s.t.After(cutoff) {
			best, found = s, true
			break // newest-first scan: first hit is the newest old-enough one
		}
	}
	if found {
		return best
	}
	if oldestSet {
		return oldest
	}
	return sample{}
}

// BucketQuantile interpolates quantile q from per-bucket (non-cumulative)
// counts over the given finite bucket bounds, with the overflow bucket's
// count last (len(counts) == len(bounds)+1), mirroring obs.Histogram
// quantile semantics: linear interpolation within the landing bucket, and
// the largest finite bound as a lower bound when the quantile lands in the
// overflow bucket. Exported for consumers computing windowed quantiles from
// bucket deltas (the cluster prober's per-replica p99).
func BucketQuantile(bounds []float64, counts []float64, q float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	rank := q * total
	cum := 0.0
	for i, c := range counts {
		if c <= 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(bounds) { // overflow
				break
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (rank-cum)/c*(bounds[i]-lo)
		}
		cum += c
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// ObjectiveStatus is one objective's slice of the /slo wire format.
type ObjectiveStatus struct {
	Name          string  `json:"name"`
	Kind          string  `json:"kind"` // latency | availability
	Target        float64 `json:"target"`
	Bound         float64 `json:"bound_seconds,omitempty"`
	State         string  `json:"state"`
	FastBurn      float64 `json:"fast_burn"`
	SlowBurn      float64 `json:"slow_burn"`
	FastErrorRate float64 `json:"fast_error_rate"`
	SlowErrorRate float64 `json:"slow_error_rate"`
	FastP99       float64 `json:"fast_p99_seconds,omitempty"`
	FastGood      float64 `json:"fast_window_good"`
	FastTotal     float64 `json:"fast_window_total"`
	// ExemplarTraceID, for a latency objective in warn/page, is a concrete
	// trace slower than the bound — the /slo → trace log entry point.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
}

// Status is the /slo wire format.
type Status struct {
	State       string            `json:"state"`
	FastWindow  string            `json:"fast_window"`
	SlowWindow  string            `json:"slow_window"`
	WarnRate    float64           `json:"warn_burn_rate"`
	PageRate    float64           `json:"page_burn_rate"`
	Transitions uint64            `json:"transitions"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// State returns the overall state (the worst objective's).
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overall
}

// Status summarizes the tracker as of its last Eval.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Status{
		State:      t.overall.String(),
		FastWindow: t.cfg.FastWindow.String(),
		SlowWindow: t.cfg.SlowWindow.String(),
		WarnRate:   t.cfg.WarnRate,
		PageRate:   t.cfg.PageRate,
	}
	s.Transitions = t.cTransitions.Value()
	for _, st := range t.objs {
		os := ObjectiveStatus{
			Name:          st.obj.Name,
			Kind:          "availability",
			Target:        st.obj.Target,
			State:         st.state.String(),
			FastBurn:      st.fastBurn,
			SlowBurn:      st.slowBurn,
			FastErrorRate: st.fastRate,
			SlowErrorRate: st.slowRate,
			FastGood:      st.fastGood,
			FastTotal:     st.fastTotal,
		}
		if st.obj.Histogram != "" {
			os.Kind = "latency"
			os.Bound = st.obj.Bound
			os.FastP99 = st.fastP99
			if st.state > StateOK {
				if ex, ok := st.hist.ExemplarAbove(st.obj.Bound); ok {
					os.ExemplarTraceID = ex.TraceID
				}
			}
		}
		s.Objectives = append(s.Objectives, os)
	}
	return s
}
