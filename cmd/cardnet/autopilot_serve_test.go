package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/autopilot"
	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// apTruth is the synthetic exact oracle of the autopilot tests: a monotone
// cumulative curve derived from the query's popcount, deterministic so the
// retrain labels and the shadow scoring agree.
func apTruth(x []float64, tauTop int) ([]float64, error) {
	pop := 0.0
	for _, v := range x {
		pop += v
	}
	curve := make([]float64, tauTop+1)
	for tau := range curve {
		curve[tau] = 20 + 5*float64(tau) + 3*pop
	}
	return curve, nil
}

// apX returns a distinct binary query per index.
func apX(m *core.Model, i int) []float64 {
	x := make([]float64, m.InDim)
	for b := 0; b < m.InDim; b++ {
		if (i>>(b%10))&1 == 1 || b == i%m.InDim {
			x[b] = 1
		}
	}
	return x
}

// fastPilotConfig is tuned for test time: trigger within tens of
// milliseconds of sustained drift, small sample and shadow floors.
func fastPilotConfig(dir string) autopilot.Config {
	return autopilot.Config{
		Dir:           dir,
		Dwell:         30 * time.Millisecond,
		Poll:          5 * time.Millisecond,
		Cooldown:      time.Hour,
		MinSamples:    8,
		ShadowRate:    1.0,
		ShadowMin:     8,
		ShadowTimeout: 30 * time.Second,
		GateSweep:     32,
	}
}

// newAutopilotServer stands up the full serving mux with a running pilot over
// a drift monitor configured to react within a handful of samples.
func newAutopilotServer(t *testing.T, cfg autopilot.Config, label autopilot.Labeler) (*httptest.Server, *serving.Engine, *autopilot.Pilot) {
	t.Helper()
	m := tinyModel(3)
	eng := testEngine(t, m, serving.Config{
		MaxBatch: 8, CacheEntries: -1,
	})
	mon := monitor.New(monitor.Config{Window: 64, BaselineN: 4, EWMAAlpha: 0.5}, obs.NewRegistry())
	eng.Registry().OnSwap(mon.ResetBaseline)
	pilot, err := autopilot.New(cfg, eng, mon, label)
	if err != nil {
		t.Fatal(err)
	}
	pilot.Start()
	ts := httptest.NewServer(newServeMux(eng, serveOptions{mon: mon, pilot: pilot}))
	t.Cleanup(func() { ts.Close(); pilot.Close(); eng.Close() })
	return ts, eng, pilot
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return resp, doc
}

func floatsJSON(x []float64) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = fmt.Sprint(v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func waitPilotState(t *testing.T, p *autopilot.Pilot, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("pilot never reached %q (stuck at %q)", want, p.State())
}

// TestAutopilotE2EDriftToSwap is the closed loop end to end over live HTTP:
// labelled feedback induces sustained drift, the pilot retrains on the
// accumulated samples, shadow-evaluates the candidate on live /estimate
// traffic, and hot-swaps — with zero client-visible errors throughout, the
// decision journaled, and the verdict observable in /healthz and /metrics.
func TestAutopilotE2EDriftToSwap(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	sink, err := obs.NewFileSink(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	cfg := fastPilotConfig(filepath.Join(dir, "staging"))
	cfg.Journal = sink
	cfg.PublishPath = filepath.Join(dir, "published.gob")
	ts, eng, pilot := newAutopilotServer(t, cfg, apTruth)
	cur := eng.Registry().Current()
	m, v0 := cur.Model, cur.Version

	// Concurrent estimate clients run through the whole cycle — drift,
	// retrain, shadow, swap — and must never see a non-200.
	var clientErrs atomic.Int64
	stopClients := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopClients:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/estimate?all=true&x=" +
					strings.Trim(floatsJSON(apX(m, 100*c+i%50)), "[]"))
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					clientErrs.Add(1)
				}
				resp.Body.Close()
			}
		}(c)
	}

	// Freeze a healthy baseline: q≈1 feedback (actual equals the estimate the
	// server itself computes, read back from the response).
	for i := 0; i < 4; i++ {
		x := apX(m, i)
		resp, doc := postJSON(t, ts.URL+"/feedback",
			fmt.Sprintf(`{"x":%s,"tau":%d,"actual":1}`, floatsJSON(x), i%(m.Cfg.TauMax+1)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline feedback %d: status %d (%v)", i, resp.StatusCode, doc)
		}
	}
	// Drift: feedback now carries the oracle's actuals, far from the
	// untrained model's estimates. These same queries become the retrain set.
	for i := 4; i < 40; i++ {
		x := apX(m, i)
		tau := i % (m.Cfg.TauMax + 1)
		truth, _ := apTruth(x, m.Cfg.TauMax)
		resp, _ := postJSON(t, ts.URL+"/feedback",
			fmt.Sprintf(`{"x":%s,"tau":%d,"actual":%g}`, floatsJSON(x), tau, truth[tau]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drift feedback %d: status %d", i, resp.StatusCode)
		}
	}

	// The loop must now run to a swap on its own: trigger after the dwell,
	// retrain, shadow over the clients' live traffic, swap, cooldown.
	waitPilotState(t, pilot, autopilot.StateCooldown, 120*time.Second)
	close(stopClients)
	wg.Wait()

	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("%d client-visible errors during the autopilot cycle", n)
	}
	st := pilot.Status()
	if st.Swaps != 1 || st.Rejects != 0 || st.LastDecision == nil || st.LastDecision.Event != "swap" {
		t.Fatalf("cycle did not end in a swap: %+v (last %+v)", st, st.LastDecision)
	}
	if v := eng.Registry().Current().Version; v != v0+1 {
		t.Fatalf("registry version %d, want %d", v, v0+1)
	}
	// The swapped model was published for restart.
	if _, err := os.Stat(cfg.PublishPath); err != nil {
		t.Fatalf("swapped model not published: %v", err)
	}

	// /healthz carries the autopilot block with the decision.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ap, ok := hz["autopilot"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no autopilot block: %v", hz)
	}
	if ap["state"] != autopilot.StateCooldown || ap["swaps"].(float64) != 1 {
		t.Fatalf("healthz autopilot block: %v", ap)
	}

	// /metrics exposes the autopilot family.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(mResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mResp.Body.Close()
	if snap.Counters["autopilot.swaps"] < 1 {
		t.Fatalf("autopilot.swaps not counted: %v", snap.Counters["autopilot.swaps"])
	}
	if _, ok := snap.Gauges["autopilot.state"]; !ok {
		t.Fatalf("autopilot.state gauge missing")
	}

	// The decision journal holds the full transition history ending in the
	// swap decision.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var sawTrigger, sawSwap bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch ev["to"] {
		case autopilot.StateTriggered:
			sawTrigger = true
		case autopilot.StateSwap:
			sawSwap = true
		}
	}
	if !sawTrigger || !sawSwap {
		t.Fatalf("journal missing transitions (trigger=%v swap=%v):\n%s", sawTrigger, sawSwap, data)
	}
}

// TestAutopilotRejectsRegressionCandidate forces a regression: the labeler
// feeds the retrain garbage (constant huge counts), then reverts to scoring
// shadow traffic against the live model's own curves — so the live model
// scores a perfect q≈1 and the garbage-trained candidate must lose, reject,
// and enter cooldown without touching the registry.
func TestAutopilotRejectsRegressionCandidate(t *testing.T) {
	var shadowMode atomic.Bool // false: garbage labels; true: live-curve labels
	live, err := infer.Lower(tinyModel(3), infer.PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	label := func(x []float64, tauTop int) ([]float64, error) {
		if shadowMode.Load() {
			return live.EstimateAllTaus(x)[:tauTop+1], nil
		}
		curve := make([]float64, tauTop+1)
		for tau := range curve {
			curve[tau] = 1000
		}
		return curve, nil
	}

	cfg := fastPilotConfig(t.TempDir())
	ts, eng, pilot := newAutopilotServer(t, cfg, label)
	// The server's registry serves the same weights as `live` (same seed)
	// through the same f64 plan, so the shadow-phase labels equal what the
	// engine serves.
	cur := eng.Registry().Current()
	m, v0 := cur.Model, cur.Version

	for i := 0; i < 16; i++ {
		pilot.Observe(apX(m, i), i%(m.Cfg.TauMax+1))
	}
	pilot.Force()
	// The train set is labeled during the triggered phase; once the pilot is
	// training, flipping to shadow-mode labels only affects the verdict.
	waitPilotState(t, pilot, autopilot.StateTraining, 60*time.Second)
	shadowMode.Store(true)
	waitPilotState(t, pilot, autopilot.StateShadow, 120*time.Second)

	deadline := time.Now().Add(60 * time.Second)
	for pilot.State() == autopilot.StateShadow && time.Now().Before(deadline) {
		for i := 0; i < 8; i++ {
			resp, err := http.Get(ts.URL + "/estimate?all=true&x=" + strings.Trim(floatsJSON(apX(m, i)), "[]"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	waitPilotState(t, pilot, autopilot.StateCooldown, 60*time.Second)

	st := pilot.Status()
	if st.Rejects != 1 || st.Swaps != 0 {
		t.Fatalf("regression candidate not rejected: %+v (last %+v)", st, st.LastDecision)
	}
	if st.LastDecision == nil || st.LastDecision.CandQGeoMean <= st.LastDecision.LiveQGeoMean {
		t.Fatalf("reject decision does not show the regression: %+v", st.LastDecision)
	}
	if v := eng.Registry().Current().Version; v != v0 {
		t.Fatalf("registry swapped to a regressed candidate (version %d)", v)
	}
}

// TestAdminAutopilotEndpoint covers the operator surface: status via GET,
// force/inhibit/resume actions, bad action, and 404 without a pilot.
func TestAdminAutopilotEndpoint(t *testing.T) {
	cfg := fastPilotConfig(t.TempDir())
	cfg.Dwell = time.Hour // never self-trigger in this test
	ts, _, pilot := newAutopilotServer(t, cfg, apTruth)

	resp, doc := postJSON(t, ts.URL+"/admin/autopilot", `{"action":"inhibit"}`)
	if resp.StatusCode != http.StatusOK || doc["inhibited"] != true {
		t.Fatalf("inhibit: %d %v", resp.StatusCode, doc)
	}
	if !pilot.Inhibited() {
		t.Fatalf("pilot not inhibited after admin action")
	}
	resp, doc = postJSON(t, ts.URL+"/admin/autopilot", `{"action":"resume"}`)
	if resp.StatusCode != http.StatusOK || doc["inhibited"] != false {
		t.Fatalf("resume: %d %v", resp.StatusCode, doc)
	}
	resp, _ = postJSON(t, ts.URL+"/admin/autopilot", `{"action":"defenestrate"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action: %d", resp.StatusCode)
	}

	getResp, err := http.Get(ts.URL + "/admin/autopilot")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(getResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if st["state"] != autopilot.StateIdle {
		t.Fatalf("status: %v", st)
	}

	// Without a pilot the endpoint 404s with a usage hint.
	plain, _ := newTestServer(t, tinyModel(5), serving.Config{})
	noResp, err := http.Get(plain.URL + "/admin/autopilot")
	if err != nil {
		t.Fatal(err)
	}
	noResp.Body.Close()
	if noResp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-pilot status: %d", noResp.StatusCode)
	}
}

// TestHealthzShapeGolden locks the /healthz document's key structure: every
// subsystem verdict (drift, precision, autopilot) is a nested block, and the
// full sorted key-path list matches the golden file — so a shape change (the
// kind that silently breaks fleet tooling reading "<block>.status") fails
// loudly here.
func TestHealthzShapeGolden(t *testing.T) {
	cfg := fastPilotConfig(t.TempDir())
	cfg.Dwell = time.Hour
	ts, _, _ := newAutopilotServer(t, cfg, apTruth)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			paths = append(paths, prefix)
			return
		}
		for k, sub := range m {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walk(p, sub)
		}
	}
	walk("", hz)
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "healthz_keys.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate by writing the FAIL output below to %s): %v\ngot:\n%s", goldenPath, err, got)
	}
	if got != string(want) {
		t.Fatalf("/healthz key paths changed.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
