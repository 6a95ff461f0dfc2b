package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cardnet/internal/obs"
)

// epoch is the synthetic clock origin for deterministic Eval-driven tests.
var epoch = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func availabilityTracker(t *testing.T, reg *obs.Registry, sink *obs.Sink, transitions *[]Transition) *Tracker {
	t.Helper()
	return New(Config{
		Registry:   reg,
		FastWindow: time.Minute,
		SlowWindow: 5 * time.Minute,
		WarnRate:   1,
		PageRate:   10,
		Sink:       sink,
		OnTransition: func(tr Transition) {
			*transitions = append(*transitions, tr)
		},
		Objectives: []Objective{{
			Name:          "availability",
			Target:        0.99,
			TotalCounter:  "http.estimate.requests",
			ErrorCounters: []string{"http.estimate.5xx"},
		}},
	})
}

func TestAvailabilityBurnRampOKWarnPageOK(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	var seen []Transition
	tr := availabilityTracker(t, reg, sink, &seen)

	total := reg.Counter("http.estimate.requests")
	errs := reg.Counter("http.estimate.5xx")

	// t0: clean traffic. First eval has no window baseline -> ok.
	total.Add(1000)
	tr.Eval(epoch)
	if got := tr.State(); got != StateOK {
		t.Fatalf("state after clean eval = %v", got)
	}

	// t0+2m: 40 errors over 1000 requests. Error rate 4% against a 1%
	// budget burns at 4x in both windows -> warn.
	total.Add(1000)
	errs.Add(40)
	tr.Eval(epoch.Add(2 * time.Minute))
	if got := tr.State(); got != StateWarn {
		t.Fatalf("state after 4x burn = %v, want warn", got)
	}

	// t0+4m: 200 errors over the next 1000. Fast window burns at 20x,
	// slow window (anchored at t0) at 12x -> page.
	total.Add(1000)
	errs.Add(200)
	tr.Eval(epoch.Add(4 * time.Minute))
	if got := tr.State(); got != StatePage {
		t.Fatalf("state after sustained burn = %v, want page", got)
	}

	// t0+20m: recovery. Both windows now only see clean traffic -> ok.
	total.Add(10000)
	tr.Eval(epoch.Add(20 * time.Minute))
	if got := tr.State(); got != StateOK {
		t.Fatalf("state after recovery = %v, want ok", got)
	}

	want := [][2]string{{"ok", "warn"}, {"warn", "page"}, {"page", "ok"}}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %+v, want %d", seen, len(want))
	}
	for i, w := range want {
		if seen[i].From != w[0] || seen[i].To != w[1] {
			t.Fatalf("transition %d = %s->%s, want %s->%s", i, seen[i].From, seen[i].To, w[0], w[1])
		}
		if seen[i].Objective != "availability" {
			t.Fatalf("transition objective = %q", seen[i].Objective)
		}
	}
	if got := reg.Counter("slo.transitions").Value(); got != 3 {
		t.Fatalf("slo.transitions = %d, want 3", got)
	}

	// Every transition landed in the JSONL sink as a decodable event.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink lines = %d: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sink line %q: %v", line, err)
		}
		if ev["event"] != "slo.transition" {
			t.Fatalf("sink event = %v", ev["event"])
		}
	}
}

func TestStatusAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	var seen []Transition
	tr := availabilityTracker(t, reg, nil, &seen)

	total := reg.Counter("http.estimate.requests")
	errs := reg.Counter("http.estimate.5xx")
	total.Add(1000)
	tr.Eval(epoch)
	total.Add(1000)
	errs.Add(40)
	tr.Eval(epoch.Add(2 * time.Minute))

	st := tr.Status()
	if st.State != "warn" {
		t.Fatalf("status state = %q", st.State)
	}
	if st.FastWindow != "1m0s" || st.SlowWindow != "5m0s" {
		t.Fatalf("windows = %q/%q", st.FastWindow, st.SlowWindow)
	}
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %+v", st.Objectives)
	}
	o := st.Objectives[0]
	if o.Kind != "availability" || o.Name != "availability" {
		t.Fatalf("objective = %+v", o)
	}
	if o.FastBurn < 3.9 || o.FastBurn > 4.1 {
		t.Fatalf("fast burn = %v, want ~4", o.FastBurn)
	}
	if o.FastTotal != 1000 || o.FastGood != 960 {
		t.Fatalf("fast window good/total = %v/%v", o.FastGood, o.FastTotal)
	}
	if got := reg.Gauge("slo.state").Value(); got != float64(StateWarn) {
		t.Fatalf("slo.state gauge = %v", got)
	}
	if got := reg.Gauge("slo.availability.burn_fast").Value(); got != o.FastBurn {
		t.Fatalf("burn gauge = %v, want %v", got, o.FastBurn)
	}

	// Status must serialize cleanly (the /slo wire format).
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyObjectiveAndP99Trigger(t *testing.T) {
	reg := obs.NewRegistry()
	var p99Calls []float64
	tr := New(Config{
		Registry:     reg,
		FastWindow:   time.Minute,
		SlowWindow:   5 * time.Minute,
		P99Threshold: 0.05,
		OnP99: func(obj string, p99 float64) {
			if obj != "latency" {
				t.Errorf("p99 callback objective = %q", obj)
			}
			p99Calls = append(p99Calls, p99)
		},
		Objectives: []Objective{{
			Name:      "latency",
			Target:    0.5,
			Histogram: "serving.e2e.seconds",
			Bound:     0.1,
		}},
	})
	h := reg.Histogram("serving.e2e.seconds", obs.TimeBuckets())

	// Fast traffic: everything under the bound.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	tr.Eval(epoch)
	tr.Eval(epoch.Add(2 * time.Minute))
	if got := tr.State(); got != StateOK {
		t.Fatalf("state with fast traffic = %v", got)
	}
	if len(p99Calls) != 0 {
		t.Fatalf("p99 trigger fired on fast traffic: %v", p99Calls)
	}
	st := tr.Status().Objectives[0]
	if st.Kind != "latency" || st.Bound != 0.1 {
		t.Fatalf("objective status = %+v", st)
	}
	if st.FastP99 > 0.002 {
		t.Fatalf("fast p99 = %v for 1ms traffic", st.FastP99)
	}

	// Slow traffic: 100 requests at ~1s. The windowed p99 crosses the
	// threshold and the share under the bound collapses.
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	tr.Eval(epoch.Add(4 * time.Minute))
	if got := tr.State(); got == StateOK {
		t.Fatalf("state stayed ok through latency regression")
	}
	if len(p99Calls) == 0 {
		t.Fatal("p99 trigger never fired")
	}
	if p99Calls[0] < 0.5 {
		t.Fatalf("windowed p99 = %v, want ~1s", p99Calls[0])
	}
}

// TestLatencyTransitionCarriesExemplar checks the /slo → trace workflow: a
// latency objective degrading names a concrete traced request beyond the
// bound, in the transition event, the JSONL sink line, and Status.
func TestLatencyTransitionCarriesExemplar(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	var seen []Transition
	tr := New(Config{
		Registry:   reg,
		FastWindow: time.Minute,
		SlowWindow: 5 * time.Minute,
		Sink:       obs.NewSink(&buf),
		OnTransition: func(t Transition) {
			seen = append(seen, t)
		},
		Objectives: []Objective{{
			Name:      "latency",
			Target:    0.5,
			Histogram: "serving.e2e.seconds",
			Bound:     0.1,
		}},
	})
	h := reg.Histogram("serving.e2e.seconds", obs.TimeBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	tr.Eval(epoch)
	// Latency regression with traced observations: the slow requests carry
	// trace IDs, so the breach should name one.
	for i := 0; i < 100; i++ {
		h.ObserveExemplar(1.0, "feedfacecafe0042")
	}
	tr.Eval(epoch.Add(2 * time.Minute))

	if len(seen) == 0 {
		t.Fatal("latency regression produced no transition")
	}
	if seen[0].ExemplarTraceID != "feedfacecafe0042" {
		t.Fatalf("transition exemplar = %q, want the slow trace", seen[0].ExemplarTraceID)
	}
	if !strings.Contains(buf.String(), `"exemplar_trace_id":"feedfacecafe0042"`) {
		t.Fatalf("sink line missing exemplar: %s", buf.String())
	}
	st := tr.Status().Objectives[0]
	if st.State == "ok" || st.ExemplarTraceID != "feedfacecafe0042" {
		t.Fatalf("status lost the exemplar: %+v", st)
	}

	// Recovery transitions (toward ok) carry no exemplar: there is no
	// breach to explain.
	for i := 0; i < 10000; i++ {
		h.Observe(0.001)
	}
	tr.Eval(epoch.Add(4 * time.Minute))
	last := seen[len(seen)-1]
	if last.To == "ok" && last.ExemplarTraceID != "" {
		t.Fatalf("recovery transition carries an exemplar: %+v", last)
	}
}

func TestZeroTrafficStaysOK(t *testing.T) {
	reg := obs.NewRegistry()
	var seen []Transition
	tr := availabilityTracker(t, reg, nil, &seen)
	for i := 0; i < 10; i++ {
		tr.Eval(epoch.Add(time.Duration(i) * time.Minute))
	}
	if got := tr.State(); got != StateOK {
		t.Fatalf("state with zero traffic = %v", got)
	}
	if len(seen) != 0 {
		t.Fatalf("transitions with zero traffic: %+v", seen)
	}
}

func TestTrackerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{
		Registry: reg,
		Interval: time.Millisecond,
		Objectives: []Objective{{
			Name:          "availability",
			Target:        0.999,
			TotalCounter:  "http.estimate.requests",
			ErrorCounters: []string{"http.estimate.5xx"},
		}},
	})
	reg.Counter("http.estimate.requests").Add(10)
	tr.Start()
	deadline := time.Now().Add(2 * time.Second)
	for tr.Status().Objectives == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tr.Stop()
	if tr.Status().Objectives == nil {
		t.Fatal("tracker never evaluated at 1ms cadence within 2s")
	}
	if got := tr.State(); got != StateOK {
		t.Fatalf("state = %v", got)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{StateOK: "ok", StateWarn: "warn", StatePage: "page", State(99): "ok"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
