package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/slo"
	"cardnet/internal/serving"
)

// Satellite: every /estimate error response still carries X-Trace-Id, so a
// failing call is as correlatable with the trace log as a successful one.
func TestEstimateErrorResponsesCarryTraceID(t *testing.T) {
	m := tinyModel(3)
	ts, eng := newTestServer(t, m, serving.Config{})
	x := strings.Join(binXStrings(m), ",")

	check := func(name string, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status=%d, want %d", name, resp.StatusCode, wantCode)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatalf("%s: %d response lost X-Trace-Id", name, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewBufferString(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	check("bad JSON", resp, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/estimate?x=" + x + "&tau=99")
	if err != nil {
		t.Fatal(err)
	}
	check("bad tau", resp, http.StatusBadRequest)

	// Closed engine -> 503 path.
	eng.Close()
	before5xx := obs.Default.Counter("http.estimate.5xx").Value()
	resp, err = http.Get(ts.URL + "/estimate?x=" + x + "&tau=1")
	if err != nil {
		t.Fatal(err)
	}
	check("engine closed", resp, http.StatusServiceUnavailable)
	if got := obs.Default.Counter("http.estimate.5xx").Value(); got != before5xx+1 {
		t.Fatalf("http.estimate.5xx = %d, want %d", got, before5xx+1)
	}
}

func TestEstimateAvailabilityCounters(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})
	x := strings.Join(binXStrings(m), ",")

	beforeTotal := obs.Default.Counter("http.estimate.requests").Value()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/estimate?x=" + x + "&tau=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := obs.Default.Counter("http.estimate.requests").Value(); got != beforeTotal+3 {
		t.Fatalf("http.estimate.requests advanced by %d, want 3", got-beforeTotal)
	}
}

func TestServeSLOEndpoint(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})

	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo status=%d", resp.StatusCode)
	}
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "ok" {
		t.Fatalf("/slo state=%q on idle server", st.State)
	}
	if len(st.Objectives) != 2 {
		t.Fatalf("/slo objectives: %+v", st.Objectives)
	}
	kinds := map[string]bool{}
	for _, o := range st.Objectives {
		kinds[o.Kind] = true
	}
	if !kinds["latency"] || !kinds["availability"] {
		t.Fatalf("/slo objective kinds: %+v", st.Objectives)
	}

	post, err := http.Post(ts.URL+"/slo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /slo status=%d, want 405", post.StatusCode)
	}
}

func TestHealthzCarriesBuildAndSLO(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["version"] != buildVersion || hz["git_sha"] != buildSHA {
		t.Fatalf("healthz build identity: %+v", hz)
	}
	if hz["slo"] != "ok" {
		t.Fatalf("healthz slo state: %+v", hz)
	}
	if v, ok := hz["start_time_seconds"].(float64); !ok || v <= 0 {
		t.Fatalf("healthz start time: %+v", hz)
	}
}

func TestMetricsFederateEndpoint(t *testing.T) {
	m := tinyModel(3)
	peer, _ := newTestServer(t, m, serving.Config{})
	// Drive one estimate through the peer so its exposition has serving
	// histograms, not just zero counters.
	x := strings.Join(binXStrings(m), ",")
	if resp, err := http.Get(peer.URL + "/estimate?x=" + x + "&tau=1"); err == nil {
		resp.Body.Close()
	}

	eng := testEngine(t, tinyModel(5), serving.Config{})
	fed := httptest.NewServer(newServeMux(eng, serveOptions{peers: []string{peer.URL + "/metrics"}}))
	t.Cleanup(func() { fed.Close(); eng.Close() })

	resp, err := http.Get(fed.URL + "/metrics/federate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/federate status=%d", resp.StatusCode)
	}
	series, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("federated output does not re-parse: %v", err)
	}
	inst := strings.TrimPrefix(peer.URL, "http://")
	up := obs.FormatSeries("federate_up", []obs.Label{{Name: "instance", Value: inst}})
	if series[up] != 1 {
		t.Fatalf("federate_up for %s = %v (series count %d)", inst, series[up], len(series))
	}
	reqs := obs.FormatSeries("serving_requests_total", []obs.Label{{Name: "instance", Value: inst}})
	if series[reqs] < 1 {
		t.Fatalf("federated peer counter %q = %v", reqs, series[reqs])
	}

	// Without -peers, federation is explicitly absent rather than empty.
	bare, _ := newTestServer(t, tinyModel(7), serving.Config{})
	resp2, err := http.Get(bare.URL + "/metrics/federate")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unconfigured federate status=%d, want 404", resp2.StatusCode)
	}
}

func TestRunFleetstat(t *testing.T) {
	m := tinyModel(3)
	a, _ := newTestServer(t, m, serving.Config{})
	b, _ := newTestServer(t, tinyModel(5), serving.Config{})

	x := strings.Join(binXStrings(m), ",")
	for i := 0; i < 4; i++ {
		if resp, err := http.Get(a.URL + "/estimate?x=" + x + "&tau=1"); err == nil {
			resp.Body.Close()
		}
	}

	var out bytes.Buffer
	peers := []string{a.URL, b.URL, "http://127.0.0.1:1"} // third is dead
	if err := runFleetstat(&out, peers, 50*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "INSTANCE") || !strings.Contains(got, "QPS") {
		t.Fatalf("fleetstat table missing header:\n%s", got)
	}
	for _, p := range peers[:2] {
		inst := strings.TrimPrefix(p, "http://")
		if !strings.Contains(got, inst) {
			t.Fatalf("fleetstat table missing %s:\n%s", inst, got)
		}
	}
	if !strings.Contains(got, "down") {
		t.Fatalf("fleetstat table missing down row:\n%s", got)
	}
	// Live replicas resolve their healthz columns.
	if !strings.Contains(got, "ok") {
		t.Fatalf("fleetstat table missing healthy state:\n%s", got)
	}

	if err := runFleetstat(&out, nil, time.Millisecond, nil); err == nil {
		t.Fatal("runFleetstat accepted an empty peer list")
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" host1:8089, http://host2:9/ ,, https://host3 ")
	want := []string{"http://host1:8089", "http://host2:9", "https://host3"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if urls := peerMetricsURLs("host1:1"); len(urls) != 1 || urls[0] != "http://host1:1/metrics" {
		t.Fatalf("peerMetricsURLs = %v", urls)
	}
}
