package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/serving"
	"cardnet/internal/tensor"
)

// tinyModel returns a small untrained model (serving latency and plumbing do
// not depend on trained weights). Distinct seeds give distinct estimates.
func tinyModel(seed int64) *core.Model {
	cfg := core.DefaultConfig(8)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 4
	cfg.PhiHidden = []int{16}
	cfg.ZDim = 8
	cfg.Accel = true
	cfg.Seed = seed
	return core.New(cfg, 16)
}

// testEngine starts an engine over m published at the default f64 tier.
func testEngine(t testing.TB, m *core.Model, cfg serving.Config) *serving.Engine {
	t.Helper()
	reg, err := serving.NewRegistry(m, serving.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return serving.NewEngine(reg, cfg)
}

// planCurve is m's estimate curve for x through its f64 plan, the bits the
// default engine serves.
func planCurve(t testing.TB, m *core.Model, x []float64) []float64 {
	t.Helper()
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	return p.EstimateAllTaus(x)
}

// newTestServer stands up the full handler tree over a fresh engine.
func newTestServer(t *testing.T, m *core.Model, cfg serving.Config) (*httptest.Server, *serving.Engine) {
	t.Helper()
	eng := testEngine(t, m, cfg)
	ts := httptest.NewServer(newServeMux(eng, serveOptions{}))
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return ts, eng
}

func postEstimate(t *testing.T, ts *httptest.Server, body string) (*http.Response, estimateResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er estimateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return resp, er
}

func binXStrings(m *core.Model) []string {
	x := make([]string, m.InDim)
	for i := range x {
		x[i] = fmt.Sprint(i % 2)
	}
	return x
}

func TestServeEstimateAndMetrics(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{MaxBatch: 4})

	x := binXStrings(m)
	xJSON := "[" + strings.Join(x, ",") + "]"

	// POST with a single tau.
	resp, er := postEstimate(t, ts, `{"x":`+xJSON+`,"tau":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	if er.Estimate == nil || *er.Estimate < 0 || er.Tau != 3 {
		t.Fatalf("estimate response: %+v", er)
	}
	want := planCurve(t, m, parseFloats(t, x))[3]
	if *er.Estimate != want {
		t.Fatalf("HTTP estimate %v != direct %v", *er.Estimate, want)
	}

	// POST all-taus: monotone non-decreasing by Lemma 2.
	resp, er = postEstimate(t, ts, `{"x":`+xJSON+`,"all":true}`)
	if resp.StatusCode != http.StatusOK || len(er.Estimates) != m.Cfg.TauMax+1 {
		t.Fatalf("all-taus: status=%d resp=%+v", resp.StatusCode, er)
	}
	for i := 1; i < len(er.Estimates); i++ {
		if er.Estimates[i] < er.Estimates[i-1]-1e-9 {
			t.Fatalf("served estimates not monotone: %v", er.Estimates)
		}
	}

	// GET with query params matches POST.
	getResp, err := http.Get(ts.URL + "/estimate?x=" + strings.Join(x, ",") + "&tau=3")
	if err != nil {
		t.Fatal(err)
	}
	var getER estimateResponse
	if err := json.NewDecoder(getResp.Body).Decode(&getER); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getER.Estimate == nil || *getER.Estimate != want {
		t.Fatalf("GET estimate: %+v", getER)
	}

	// /metrics reports the traffic just served, now through the batch path.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var snap struct {
		Counters   map[string]uint64           `json:"counters"`
		Histograms map[string]obs.HistSnapshot `json:"histograms"`
	}
	if err := json.NewDecoder(mResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serving.requests"] == 0 {
		t.Fatal("metrics: no serving requests recorded")
	}
	if b := snap.Histograms["serving.batch.size"]; b.Count == 0 || b.Sum == 0 {
		t.Fatal("metrics: no batched rows recorded")
	}
	if snap.Histograms["http.estimate.seconds"].Count == 0 || snap.Counters["http.estimate.calls"] == 0 {
		t.Fatal("metrics: HTTP span not recorded")
	}
}

// Satellite: every malformed input fails with a deterministic 400.
func TestServeEstimateValidation(t *testing.T) {
	m := tinyModel(3)
	ts, _ := newTestServer(t, m, serving.Config{})

	x := binXStrings(m)
	xJSON := "[" + strings.Join(x, ",") + "]"
	xCSV := strings.Join(x, ",")

	post := []struct {
		name, body string
	}{
		{"malformed JSON", `{not json`},
		{"empty body", ``},
		{"empty x", `{"x":[],"tau":1}`},
		{"missing x", `{"tau":1}`},
		{"short x", `{"x":[1,0],"tau":1}`},
		{"long x", `{"x":[` + xCSV + `,1],"tau":1}`},
		{"non-binary x", `{"x":[` + strings.Replace(xCSV, "1", "0.5", 1) + `],"tau":1}`},
		{"negative component", `{"x":[` + strings.Replace(xCSV, "1", "-1", 1) + `],"tau":1}`},
		{"missing tau", `{"x":` + xJSON + `}`},
		{"negative tau", `{"x":` + xJSON + `,"tau":-1}`},
		{"tau beyond TauMax", `{"x":` + xJSON + `,"tau":` + fmt.Sprint(m.Cfg.TauMax+1) + `}`},
		{"string x", `{"x":"101","tau":1}`},
	}
	for _, tc := range post {
		resp, _ := postEstimate(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status=%d, want 400", tc.name, resp.StatusCode)
		}
	}

	get := []struct {
		name, query string
	}{
		{"empty x", "?tau=1"},
		{"junk x", "?x=1,zebra,0&tau=1"},
		{"short x", "?x=1,0&tau=1"},
		{"non-binary x", "?x=" + strings.Replace(xCSV, "1", "7", 1) + "&tau=1"},
		{"junk tau", "?x=" + xCSV + "&tau=many"},
		{"tau beyond TauMax", "?x=" + xCSV + "&tau=99"},
		{"missing tau", "?x=" + xCSV},
	}
	for _, tc := range get {
		resp, err := http.Get(ts.URL + "/estimate" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status=%d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Unsupported method.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/estimate", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE: status=%d, want 400", resp.StatusCode)
	}
}

// A drained engine maps to 503 end to end (the graceful-shutdown and
// overload degradation path, deterministic flavor).
func TestServeUnavailableAfterEngineClose(t *testing.T) {
	m := tinyModel(3)
	eng := testEngine(t, m, serving.Config{})
	ts := httptest.NewServer(newServeMux(eng, serveOptions{}))
	defer ts.Close()
	eng.Close()

	x := strings.Join(binXStrings(m), ",")
	resp, err := http.Get(ts.URL + "/estimate?x=" + x + "&tau=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed engine: status=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// /admin/reload: invalid requests are rejected, a shape-compatible model
// swaps with zero failed in-flight requests, and answers flip to the new
// model (cache invalidated).
func TestServeAdminReload(t *testing.T) {
	m1, m2 := tinyModel(3), tinyModel(17)
	ts, eng := newTestServer(t, m1, serving.Config{MaxBatch: 8, QueueDepth: 4096})

	dir := t.TempDir()
	goodPath := dir + "/m2.gob"
	if err := checkpoint.SaveModel(goodPath, m2); err != nil {
		t.Fatal(err)
	}
	wrongShape := core.New(func() core.Config {
		cfg := m1.Cfg
		cfg.TauMax = m1.Cfg.TauMax + 2
		return cfg
	}(), m1.InDim)
	wrongPath := dir + "/wrong.gob"
	if err := checkpoint.SaveModel(wrongPath, wrongShape); err != nil {
		t.Fatal(err)
	}
	nonFinite := tinyModel(19)
	nonFinite.Params()[0].Value[0] = math.NaN()
	nanPath := dir + "/nan.gob"
	if err := checkpoint.SaveModel(nanPath, nonFinite); err != nil {
		t.Fatal(err)
	}

	postReload := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Rejections: bad JSON, missing path, missing file, incompatible shape,
	// a NaN weight (it would serve silent all-zero curves).
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{nope`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"path":"` + dir + `/missing.gob"}`, http.StatusBadRequest},
		{`{"path":"` + wrongPath + `"}`, http.StatusConflict},
		{`{"path":"` + nanPath + `"}`, http.StatusConflict},
	} {
		resp := postReload(tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("reload %q: status=%d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if v := eng.Registry().Current().Version; v != 1 {
		t.Fatalf("rejected reloads advanced version to %d", v)
	}

	// Hammer /estimate while swapping: zero non-200 responses allowed.
	xs := binXStrings(m1)
	xCSV := strings.Join(xs, ",")
	xv := parseFloats(t, xs)
	want1 := planCurve(t, m1, xv)[2]
	want2 := planCurve(t, m2, xv)[2]
	if want1 == want2 {
		t.Fatal("fixture models agree; swap would be unobservable")
	}

	stop := make(chan struct{})
	var failed, served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/estimate?x=" + xCSV + "&tau=2")
				if err != nil {
					failed.Add(1)
					return
				}
				var er estimateResponse
				jsonErr := json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || jsonErr != nil ||
					er.Estimate == nil || (*er.Estimate != want1 && *er.Estimate != want2) {
					failed.Add(1)
					return
				}
				served.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	resp := postReload(`{"path":"` + goodPath + `"}`)
	var rr map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr["version"].(float64) != 2 {
		t.Fatalf("reload: status=%d body=%v", resp.StatusCode, rr)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d estimate requests failed during reload", failed.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served during reload")
	}

	// Cache was invalidated: the same query now answers from the new model.
	resp2, er := postEstimate(t, ts, `{"x":[`+xCSV+`],"tau":2}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload estimate status=%d", resp2.StatusCode)
	}
	if *er.Estimate != want2 {
		t.Fatalf("post-reload estimate %v, want new model's %v", *er.Estimate, want2)
	}
	if v := eng.Registry().Current().Version; v != 2 {
		t.Fatalf("registry version %d after reload, want 2", v)
	}

	// GET on the admin endpoint is rejected.
	getResp, err := http.Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status=%d, want 405", getResp.StatusCode)
	}
}

func TestServeHealthzAndPprof(t *testing.T) {
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
	if hz["status"] != "ok" || int(hz["in_dim"].(float64)) != m.InDim {
		t.Fatalf("healthz: %+v", hz)
	}
	if int(hz["model_version"].(float64)) != 1 {
		t.Fatalf("healthz version: %+v", hz)
	}

	pp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status=%d", pp.StatusCode)
	}
}

func parseFloats(t *testing.T, ss []string) []float64 {
	t.Helper()
	out := make([]float64, len(ss))
	for i, s := range ss {
		fmt.Sscan(s, &out[i])
	}
	return out
}

func matrixFromData(cols int, data []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: len(data) / cols, Cols: cols, Data: data}
}

// TestRunServeRefusesNonFiniteModel: `cardnet serve` must fail at startup on
// a model with a NaN weight instead of serving silent all-zero curves.
func TestRunServeRefusesNonFiniteModel(t *testing.T) {
	m := tinyModel(3)
	m.Params()[0].Value[0] = math.NaN()
	errc := make(chan error, 1)
	go func() {
		errc <- runServe(context.Background(), testListener(t), m, serving.Config{}, serving.PlanConfig{}, serveOptions{})
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("runServe = %v, want a NaN-weight compile error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runServe started serving a model with a NaN weight")
	}
}
