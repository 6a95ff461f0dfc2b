package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/cluster"
	"cardnet/internal/obs"
	"cardnet/internal/obs/tracescan"
	"cardnet/internal/serving"
)

// traceSink opens a JSONL trace sink in dir and returns a rate-1.0 sampler
// over it (every request sampled) plus the path.
func traceSink(t *testing.T, dir, name string) (*obs.TraceSampler, *obs.Sink, string) {
	t.Helper()
	path := filepath.Join(dir, name)
	sink, err := obs.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	return obs.NewTraceSampler(1.0, sink), sink, path
}

// TestRouterE2ETraceAssembly is the distributed-tracing acceptance test: a
// router fronting two traced replicas (sampling 1.0), with one replica
// rejecting its first requests to force failovers. Every sampled request
// must assemble into a cross-process trace that tiles within tolerance, the
// report must show the retry amplification, and every exemplar of the
// router's proxy histogram must appear in its OpenMetrics /metrics and
// resolve to an assembled trace.
func TestRouterE2ETraceAssembly(t *testing.T) {
	dir := t.TempDir()
	m := tinyModel(3)

	samplerA, sinkA, pathA := traceSink(t, dir, "replica-a.trace.jsonl")
	samplerB, sinkB, pathB := traceSink(t, dir, "replica-b.trace.jsonl")
	samplerR, sinkR, pathR := traceSink(t, dir, "router.trace.jsonl")

	engA := testEngine(t, m, serving.Config{MaxBatch: 4})
	engB := testEngine(t, m, serving.Config{MaxBatch: 4})
	tsA := httptest.NewServer(newServeMux(engA, serveOptions{sampler: samplerA}))
	t.Cleanup(func() { tsA.Close(); engA.Close() })

	// Replica B rejects its first 3 estimates with a bare 503 (no
	// Retry-After, so the router keeps it in rotation): forced failovers.
	var rejected atomic.Int64
	muxB := newServeMux(engB, serveOptions{sampler: samplerB})
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/estimate" && rejected.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"warming up"}`)
			return
		}
		muxB.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { tsB.Close(); engB.Close() })

	reg := obs.NewRegistry()
	rt, err := cluster.New(cluster.Config{
		Replicas: []string{tsA.URL, tsB.URL},
		Registry: reg,
		Retries:  1,
		Sampler:  samplerR,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	// Drive traffic across 27 distinct queries (the router keys on x alone)
	// so both replicas own ring segments; collect the response trace IDs.
	xs := binXStrings(m)
	responded := map[string]bool{}
	calls := 0
	for variant := 0; variant < 27; variant++ {
		x := append([]string(nil), xs...)
		for b := 0; b < 5; b++ {
			x[b] = fmt.Sprint(variant >> b & 1)
		}
		tau := variant % 9
		body := fmt.Sprintf(`{"x":[%s],"tau":%d}`, strings.Join(x, ","), tau)
		resp, err := http.Post(front.URL+"/estimate", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant=%d tau=%d status=%d", variant, tau, resp.StatusCode)
		}
		tid := resp.Header.Get(obs.TraceHeader)
		if tid == "" {
			t.Fatal("response missing X-Trace-Id")
		}
		responded[tid] = true
		calls++
	}
	if rejected.Load() < 3 {
		t.Fatalf("replica B rejected only %d requests; failover not exercised", rejected.Load())
	}

	// Fetch the router's OpenMetrics exposition before tearing down: it
	// must carry the exemplars of the router's in-process proxy histogram.
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/metrics", nil)
	req.Header.Set("Accept", obs.OpenMetricsContentType)
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var exemplars []obs.Exemplar
	proxy := reg.Histogram("cluster.proxy.seconds", obs.TimeBuckets())
	for i := 0; i <= len(obs.TimeBuckets()); i++ {
		if ex, ok := proxy.BucketExemplar(i); ok {
			exemplars = append(exemplars, ex)
		}
	}

	// Drain the async emission queues, then close the sinks.
	for _, sp := range []*obs.TraceSampler{samplerA, samplerB, samplerR} {
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if sp.Dropped() != 0 {
			t.Fatalf("sampler dropped %d traces", sp.Dropped())
		}
	}
	for _, s := range []*obs.Sink{sinkA, sinkB, sinkR} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Assemble all three logs. 5ms skew tolerance: same host, same clock —
	// anything beyond float noise would be a tiling bug.
	files := []string{pathR, pathA, pathB}
	events, err := tracescan.LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	const skewUs = 5000.0
	traces, orphans := tracescan.Assemble(events, skewUs)
	if len(traces) != calls {
		t.Fatalf("assembled %d traces from %d requests (sampling 1.0 must catch all)", len(traces), calls)
	}
	if orphans != 0 {
		t.Fatalf("%d orphan replica spans: trace propagation lost the join key", orphans)
	}
	assembled := map[string]*tracescan.Trace{}
	joined := 0
	for _, tr := range traces {
		assembled[tr.ID] = tr
		if !responded[tr.ID] {
			t.Fatalf("assembled trace %s never appeared on a response header", tr.ID)
		}
		if !tr.TilingOK {
			t.Fatalf("trace %s violates tiling: stage-sum err %.3fus, skew %.3fus", tr.ID, tr.TilingErrUs, tr.SkewUs)
		}
		if len(tr.Replicas) > 0 {
			joined++
			if tr.NetworkUs < 0 && -tr.NetworkUs > skewUs {
				t.Fatalf("trace %s: replica total exceeds router proxy window by %.1fus", tr.ID, -tr.NetworkUs)
			}
		}
	}
	if joined != calls {
		t.Fatalf("only %d/%d traces joined a replica span", joined, calls)
	}

	rep := tracescan.BuildReport(events, skewUs, 5)
	if rep.TilingViolations != 0 {
		t.Fatalf("report counts %d tiling violations", rep.TilingViolations)
	}
	if rep.Amplification.MaxAttempts < 2 {
		t.Fatalf("forced failovers missing from amplification: %+v", rep.Amplification)
	}
	if rep.Amplification.ByOutcome["rejected_503"] < 3 {
		t.Fatalf("rejected_503 attempts %d, want >=3", rep.Amplification.ByOutcome["rejected_503"])
	}
	if rep.Amplification.ByOutcome["ok"] != calls {
		t.Fatalf("ok attempts %d, want %d", rep.Amplification.ByOutcome["ok"], calls)
	}

	// Exemplar workflow: every cluster.proxy.seconds exemplar, as /metrics
	// serves it, names a trace that tracescan assembled end to end.
	if len(exemplars) == 0 {
		t.Fatal("no cluster.proxy.seconds bucket holds an exemplar")
	}
	for _, ex := range exemplars {
		if !bytes.Contains(exposition, []byte(`# {trace_id="`+ex.TraceID+`"}`)) {
			t.Fatalf("exemplar trace %s missing from the router's OpenMetrics exposition", ex.TraceID)
		}
		if assembled[ex.TraceID] == nil {
			t.Fatalf("exemplar names trace %s, which did not assemble", ex.TraceID)
		}
	}

	// And the CLI mode over the same files: text+JSON report, no tiling
	// error, amplification preserved in the machine-readable output.
	jsonPath := filepath.Join(dir, "report.json")
	var text bytes.Buffer
	err = runTracescan(&text, tracescanSettings{
		files:    files,
		topN:     5,
		skew:     5 * time.Millisecond,
		jsonPath: jsonPath,
	})
	if err != nil {
		t.Fatalf("runTracescan: %v", err)
	}
	if !strings.Contains(text.String(), "amplification") || !strings.Contains(text.String(), "slowest") {
		t.Fatalf("text report incomplete:\n%s", text.String())
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON tracescan.Report
	if err := json.Unmarshal(doc, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromJSON.Traces != calls || fromJSON.Amplification.MaxAttempts < 2 {
		t.Fatalf("JSON report diverges: traces=%d amp=%+v", fromJSON.Traces, fromJSON.Amplification)
	}
}

// traceIDSet parses a JSONL trace log and returns the set of trace IDs in it.
func traceIDSet(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s: bad trace line %q: %v", path, line, err)
		}
		if rec.TraceID == "" {
			t.Fatalf("%s: trace line without trace_id: %q", path, line)
		}
		ids[rec.TraceID] = true
	}
	return ids
}

// TestTraceSamplingDecisionPropagates verifies head-based sampling: at
// operational rates the router's sampling decision rides X-Trace-Sampled to
// the replica, which emits its half of exactly the traces the router sampled.
// Without decision propagation the two sides would sample independently and
// the replica log would be a disjoint 1-in-N subset that almost never joins.
func TestTraceSamplingDecisionPropagates(t *testing.T) {
	dir := t.TempDir()
	m := tinyModel(3)

	// The replica's own sampler fires once in a million requests: any trace
	// in its log during this test must come from a propagated decision.
	repPath := filepath.Join(dir, "replica.trace.jsonl")
	repSink, err := obs.NewFileSink(repPath)
	if err != nil {
		t.Fatal(err)
	}
	samplerRep := obs.NewTraceSampler(0.000001, repSink)

	rtPath := filepath.Join(dir, "router.trace.jsonl")
	rtSink, err := obs.NewFileSink(rtPath)
	if err != nil {
		t.Fatal(err)
	}
	samplerRt := obs.NewTraceSampler(0.5, rtSink) // every 2nd request

	eng := testEngine(t, m, serving.Config{MaxBatch: 4})
	ts := httptest.NewServer(newServeMux(eng, serveOptions{sampler: samplerRep}))
	t.Cleanup(func() { ts.Close(); eng.Close() })

	rt, err := cluster.New(cluster.Config{
		Replicas: []string{ts.URL},
		Registry: obs.NewRegistry(),
		Sampler:  samplerRt,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	const calls = 12
	body := fmt.Sprintf(`{"x":[%s],"tau":1}`, strings.Join(binXStrings(m), ","))
	for i := 0; i < calls; i++ {
		resp, err := http.Post(front.URL+"/estimate", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}

	for _, sp := range []*obs.TraceSampler{samplerRep, samplerRt} {
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if sp.Dropped() != 0 {
			t.Fatalf("sampler dropped %d traces", sp.Dropped())
		}
	}
	for _, s := range []*obs.Sink{repSink, rtSink} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	routerIDs := traceIDSet(t, rtPath)
	replicaIDs := traceIDSet(t, repPath)
	if len(routerIDs) != calls/2 {
		t.Fatalf("router sampled %d of %d requests, want %d", len(routerIDs), calls, calls/2)
	}
	if len(replicaIDs) != len(routerIDs) {
		t.Fatalf("replica emitted %d traces, router sampled %d: decision did not propagate 1:1", len(replicaIDs), len(routerIDs))
	}
	for id := range routerIDs {
		if !replicaIDs[id] {
			t.Fatalf("router sampled trace %s but the replica never emitted its half", id)
		}
	}

	// The point of coherent sampling: both halves of every sampled request
	// are present, so tracescan joins them all with zero orphans.
	events, err := tracescan.LoadFiles([]string{rtPath, repPath})
	if err != nil {
		t.Fatal(err)
	}
	traces, orphans := tracescan.Assemble(events, 5000)
	if orphans != 0 {
		t.Fatalf("%d orphan replica spans despite propagated decisions", orphans)
	}
	if len(traces) != calls/2 {
		t.Fatalf("assembled %d traces, want %d", len(traces), calls/2)
	}
	for _, tr := range traces {
		if len(tr.Replicas) == 0 {
			t.Fatalf("trace %s has no replica span: halves did not join", tr.ID)
		}
	}
}
