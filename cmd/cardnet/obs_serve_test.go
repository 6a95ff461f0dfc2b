package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
	"cardnet/internal/simselect"
)

// Every /estimate response — success or failure — carries a unique
// X-Trace-Id so clients can correlate slow calls with the trace log.
func TestEstimateResponsesCarryTraceID(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{MaxBatch: 4})

	xCSV := strings.Join(binXStrings(m), ",")
	seen := map[string]bool{}
	for _, url := range []string{
		ts.URL + "/estimate?x=" + xCSV + "&tau=2", // 200
		ts.URL + "/estimate?x=1,0&tau=2",          // 400: short x
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Trace-Id")
		if len(id) != 16 {
			t.Fatalf("GET %s: X-Trace-Id = %q, want 16 hex chars", url, id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func stageSums(t *testing.T) (map[string]float64, float64, uint64) {
	t.Helper()
	stages := []string{
		serving.StageAdmission, serving.StageCache, serving.StageQueueWait,
		serving.StageBatchForm, serving.StageForward, serving.StageWrite,
	}
	sums := make(map[string]float64, len(stages))
	for _, s := range stages {
		sums[s] = obs.Default.Histogram(serving.StageHistName(s), obs.TimeBuckets()).Sum()
	}
	e2e := obs.Default.Histogram("serving.e2e.seconds", obs.TimeBuckets())
	return sums, e2e.Sum(), e2e.Count()
}

// The acceptance bound of the tracing design: per-stage histogram time sums
// to the end-to-end latency within 10%. Marks tile the traced interval, so
// this holds by construction; the test guards the invariant against future
// stages being added without a histogram (or observed twice).
func TestStageHistogramsSumToEndToEnd(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{MaxBatch: 4})

	before, e2eBefore, nBefore := stageSums(t)
	const reqs = 40
	xs := binXStrings(m)
	for i := 0; i < reqs; i++ {
		xs[i%len(xs)] = fmt.Sprint((i + 1) % 2) // vary x: mix cache hits and misses
		url := ts.URL + "/estimate?x=" + strings.Join(xs, ",") + "&tau=" + fmt.Sprint(i%(m.Cfg.TauMax+1))
		if i%5 == 0 {
			url = ts.URL + "/estimate?x=" + strings.Join(xs, ",") + "&all=1"
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	after, e2eAfter, nAfter := stageSums(t)

	if got := nAfter - nBefore; got != reqs {
		t.Fatalf("e2e histogram grew by %d, want %d", got, reqs)
	}
	var stageTotal float64
	for s, b := range before {
		stageTotal += after[s] - b
	}
	e2e := e2eAfter - e2eBefore
	if e2e <= 0 {
		t.Fatalf("e2e sum delta %v", e2e)
	}
	if diff := math.Abs(stageTotal - e2e); diff > 0.10*e2e {
		t.Fatalf("stage sums %.6fs vs e2e %.6fs: off by %.1f%%, want ≤10%%",
			stageTotal, e2e, 100*diff/e2e)
	}
}

// /metrics speaks both formats: expvar-style JSON by default (with an
// explicit Content-Type) and Prometheus 0.0.4 under content negotiation,
// and non-GET methods are rejected.
func TestMetricsContentNegotiation(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{MaxBatch: 2})

	// Serve one request so the serving metrics are non-trivial.
	resp, err := http.Get(ts.URL + "/estimate?x=" + strings.Join(binXStrings(m), ",") + "&tau=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Default: JSON with explicit Content-Type.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON Content-Type = %q", ct)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Prometheus under Accept: text/plain. The writer's grammar is pinned by
	// the obs package's round-trip tests; here the served text must carry
	// the serving series, with the +Inf bucket equal to the count.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Prometheus Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// sample maps each "series value" line to its value text.
	sample := map[string]string{}
	for _, line := range strings.Split(string(text), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			sample[line[:i]] = line[i+1:]
		}
	}
	for _, want := range []string{
		"serving_requests_total",
		"serving_e2e_seconds_count",
		`serving_e2e_seconds_bucket{le="+Inf"}`,
		"serving_stage_forward_seconds_sum",
		"monitor_drift_level",
	} {
		if _, ok := sample[want]; !ok {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}
	if inf, n := sample[`serving_e2e_seconds_bucket{le="+Inf"}`], sample["serving_e2e_seconds_count"]; inf != n {
		t.Fatalf("+Inf bucket %q != count %q", inf, n)
	}

	// Non-GET is rejected.
	post, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", post.StatusCode)
	}
}

// Labelled feedback drives the drift verdict: consistent accuracy freezes a
// baseline and stays "ok"; the same stale model against drifted actuals
// walks the status to "retrain-recommended" (the Section 8 trigger).
func TestFeedbackDriftTransition(t *testing.T) {
	m := tinyModel(3)
	mon := monitor.New(monitor.Config{BaselineN: 8, EWMAAlpha: 0.5}, obs.Default)
	eng := testEngine(t, m, serving.Config{MaxBatch: 2})
	ts := httptest.NewServer(newServeMux(eng, serveOptions{mon: mon}))
	t.Cleanup(func() { ts.Close(); eng.Close() })

	xCSV := strings.Join(binXStrings(m), ",")
	var er estimateResponse
	resp, err := http.Get(ts.URL + "/estimate?x=" + xCSV + "&tau=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	postFeedback := func(actual float64) map[string]any {
		t.Helper()
		body := fmt.Sprintf(`{"x":[%s],"tau":2,"actual":%g}`, xCSV, actual)
		resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback status %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	getDrift := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/drift")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Accurate feedback establishes the baseline (q-error = 1).
	truth := *er.Estimate
	if truth < 1 {
		truth = 1
	}
	for i := 0; i < 8; i++ {
		postFeedback(truth)
	}
	d := getDrift()
	if d["status"] != monitor.StatusOK || d["baseline_ready"] != true {
		t.Fatalf("after accurate feedback: %+v", d)
	}
	if d["feedback_samples"].(float64) != 8 {
		t.Fatalf("feedback_samples: %+v", d)
	}
	if d["model_version"].(float64) != 1 {
		t.Fatalf("model_version: %+v", d)
	}

	// The data drifted: actual cardinalities are 100× the stale model's
	// estimates. The monitor must escalate to retrain-recommended.
	var last map[string]any
	for i := 0; i < 16; i++ {
		last = postFeedback(truth * 100)
	}
	if last["drift"] != monitor.StatusRetrain {
		t.Fatalf("feedback response after drift: %+v", last)
	}
	d = getDrift()
	if d["status"] != monitor.StatusRetrain {
		t.Fatalf("drift after 100x actuals: %+v", d)
	}
	if d["qerror_ewma"].(float64) < 10 {
		t.Fatalf("EWMA too low after drift: %+v", d)
	}

	// /healthz surfaces the same verdict inside the nested drift block.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dr, ok := hz["drift"].(map[string]any)
	if !ok {
		t.Fatalf("healthz drift is not a nested block: %+v", hz)
	}
	if dr["status"] != monitor.StatusRetrain {
		t.Fatalf("healthz drift: %+v", dr)
	}
	if lvl, _ := dr["level"].(float64); lvl != 2 {
		t.Fatalf("healthz drift level = %v, want 2", dr["level"])
	}
}

// /feedback rejects malformed bodies.
func TestFeedbackValidation(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})
	xCSV := strings.Join(binXStrings(m), ",")

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"bad JSON", `{nope`, http.StatusBadRequest},
		{"missing actual", `{"x":[` + xCSV + `],"tau":1}`, http.StatusBadRequest},
		{"negative actual", `{"x":[` + xCSV + `],"tau":1,"actual":-3}`, http.StatusBadRequest},
		{"missing tau", `{"x":[` + xCSV + `],"actual":5}`, http.StatusBadRequest},
		{"short x", `{"x":[1,0],"tau":1,"actual":5}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/feedback")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /feedback: status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsJSONAfterNonFiniteFeedback is the regression for a blank
// /metrics: two valid feedback posts with a huge actual push the
// monitor.qerror histogram sum past MaxFloat64 to +Inf, which encoding/json
// refused, so JSON /metrics answered 200 with an empty body from then on.
func TestMetricsJSONAfterNonFiniteFeedback(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})
	// tinyModel estimates below 1 at tau 1, so each q-error is the actual.
	body := `{"x":[` + strings.Join(binXStrings(m), ",") + `],"tau":1,"actual":1.7e308}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var fb struct {
			QError float64 `json:"qerror"`
		}
		err = json.NewDecoder(resp.Body).Decode(&fb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || fb.QError != 1.7e308 {
			t.Fatalf("feedback %d: status %d, qerror %v, err %v", i, resp.StatusCode, fb.QError, err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON /metrics after +Inf sum: %v", err)
	}
	if got := snap.Histograms["monitor.qerror"]["sum"]; got != "+Inf" {
		t.Fatalf("monitor.qerror sum = %v, want \"+Inf\"", got)
	}
}

// A numerically corrupted model breaks the prefix-sum guarantee of Lemma 2
// and trips the monitor's violation counter on the very first served batch.
// Compilation refuses NaN and infinite weights, so the corruption that still
// reaches serving is a finite decoder bias so large that the prefix sum
// overflows to +Inf.
func TestMonotonicityViolationCounted(t *testing.T) {
	m := tinyModel(5)
	corrupted := false
	for _, p := range m.Params() {
		if p.Name == "decB" {
			for i := range p.Value {
				p.Value[i] = math.MaxFloat64
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("decoder bias param not found")
	}
	mon := monitor.New(monitor.Config{}, obs.NewRegistry())
	eng := testEngine(t, m, serving.Config{
		MaxBatch: 1, CacheEntries: -1,
		CurveCheck: func(c []float64) { mon.CheckCurve(c) },
	})
	defer eng.Close()

	x := make([]float64, m.InDim)
	if _, err := eng.Estimate(context.Background(), x, 2); err != nil {
		t.Fatal(err)
	}
	st := mon.Status()
	if st.MonoChecks == 0 || st.MonoViolations == 0 {
		t.Fatalf("corrupted model not flagged: %+v", st)
	}

	// A healthy model through the same wiring stays clean.
	mon2 := monitor.New(monitor.Config{}, obs.NewRegistry())
	eng2 := testEngine(t, tinyModel(5), serving.Config{
		MaxBatch: 1, CacheEntries: -1,
		CurveCheck: func(c []float64) { mon2.CheckCurve(c) },
	})
	defer eng2.Close()
	if _, err := eng2.Estimate(context.Background(), x, 2); err != nil {
		t.Fatal(err)
	}
	if st := mon2.Status(); st.MonoViolations != 0 || st.MonoChecks == 0 {
		t.Fatalf("healthy model flagged: %+v", st)
	}
}

// With -tracelog on and rate 1, every request's trace lands in the JSONL
// log with its stages and the response's X-Trace-Id.
func TestTraceSamplingWritesJSONL(t *testing.T) {
	m := tinyModel(3)
	path := t.TempDir() + "/traces.jsonl"
	sink, err := obs.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, m, serving.Config{MaxBatch: 2})
	sampler := obs.NewTraceSampler(1, sink)
	ts := httptest.NewServer(newServeMux(eng, serveOptions{sampler: sampler}))
	t.Cleanup(func() { ts.Close(); eng.Close() })

	xCSV := strings.Join(binXStrings(m), ",")
	ids := map[string]bool{}
	const reqs = 3
	for i := 0; i < reqs; i++ {
		resp, err := http.Get(ts.URL + "/estimate?x=" + xCSV + "&tau=" + fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids[resp.Header.Get("X-Trace-Id")] = true
	}
	if err := sampler.Close(); err != nil { // drain the async queue first
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != reqs {
		t.Fatalf("trace log has %d lines, want %d", len(lines), reqs)
	}
	for _, line := range lines {
		var ev struct {
			Event   string           `json:"event"`
			TraceID string           `json:"trace_id"`
			TotalUs float64          `json:"total_us"`
			Stages  []obs.TraceStage `json:"stages"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Event != "trace" || !ids[ev.TraceID] {
			t.Fatalf("trace line does not match a served request: %q", line)
		}
		if len(ev.Stages) == 0 || ev.Stages[len(ev.Stages)-1].Name != serving.StageWrite {
			t.Fatalf("trace stages incomplete: %q", line)
		}
	}
}

// Audit sampling replays served estimates against the exact oracle and
// feeds Audit-source q-errors to the monitor without labelled feedback.
func TestAuditSamplingFeedsMonitor(t *testing.T) {
	m := tinyModel(3)
	// Oracle over a tiny synthetic encoded dataset of the model's dimension.
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, m.InDim)
		for j := range rows[i] {
			rows[i][j] = float64((i + j) % 2)
		}
	}
	oracle, err := simselect.NewEncodedOracle(rows)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{}, obs.Default)
	eng := testEngine(t, m, serving.Config{MaxBatch: 2})
	ts := httptest.NewServer(newServeMux(eng, serveOptions{mon: mon, oracle: oracle, auditRate: 1}))
	t.Cleanup(func() { ts.Close(); eng.Close() })

	xCSV := strings.Join(binXStrings(m), ",")
	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/estimate?x=" + xCSV + "&tau=" + fmt.Sprint(i%(m.Cfg.TauMax+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for mon.Status().Audits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no audit samples recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
