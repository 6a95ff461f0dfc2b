package main

import (
	"bytes"
	"encoding/json"
	"net/http"
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

// TestInstrument: an instrumented handler records every call into the
// "<name>.seconds" histogram and the "<name>.calls" counter on the default
// registry, both resolved when the handler is wrapped, so a request costs
// no registry lookup and no allocation.
func TestInstrument(t *testing.T) {
	h := instrument("test.instrument", func(http.ResponseWriter, *http.Request) { time.Sleep(time.Millisecond) })
	seconds := obs.Default.Histogram("test.instrument.seconds", nil)
	calls := obs.Default.Counter("test.instrument.calls")
	n0, sum0, calls0 := seconds.Count(), seconds.Sum(), calls.Value()
	h(nil, nil)
	h(nil, nil)
	if n, sum, c := seconds.Count()-n0, seconds.Sum()-sum0, calls.Value()-calls0; n != 2 || sum < 0.002 || c != 2 {
		t.Fatalf("two 1 ms calls: %d observations summing to %vs, %d calls", n, sum, c)
	}
	noop := instrument("test.instrument_noop", func(http.ResponseWriter, *http.Request) {})
	if a := testing.AllocsPerRun(100, func() { noop(nil, nil) }); a != 0 {
		t.Fatalf("instrumented call allocates %v times", a)
	}
}
