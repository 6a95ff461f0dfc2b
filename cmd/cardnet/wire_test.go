package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"cardnet/internal/autopilot"
	"cardnet/internal/checkpoint"
	"cardnet/internal/cluster"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// TestWriteEstimateMatchesJSON: writeEstimate's bytes are json.Encoder's,
// trailing newline included, for point answers and curves over finite
// values at the format's edges: zeros of both signs, the exponent-form
// cutoffs 1e-6 and 1e21 from both sides, subnormals and the extremes. A
// non-finite estimate fails as the encoder fails.
func TestWriteEstimateMatchesJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 123.456, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 9.99e20,
		2.5e-10, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1e100,
	}
	resps := []estimateResponse{{Estimates: vals, Tau: 20, TauMax: 20}, {Tau: 3, TauMax: 20}}
	for i := range vals {
		resps = append(resps, estimateResponse{Estimate: &vals[i], Tau: i, TauMax: 20})
	}
	for _, resp := range resps {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		writeEstimate(w, resp)
		if got := w.Body.String(); got != string(want)+"\n" {
			t.Fatalf("writeEstimate wrote %q, json.Marshal %q", got, want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		errs := httpErrors.Value()
		w := httptest.NewRecorder()
		writeEstimate(w, estimateResponse{Estimates: []float64{1, v}, TauMax: 1})
		if w.Body.Len() != 0 || httpErrors.Value() != errs+1 {
			t.Fatalf("estimate %v: wrote %q, http.errors +%d; want nothing and one error", v, w.Body, httpErrors.Value()-errs)
		}
	}
}

// TestEstimateBodyTightenings: data after the body's object and a null
// element of x are 400s at the replica's /estimate and /feedback and at the
// router, where encoding/json let both through (the replica's decoder
// stopped at the object's end and read null as 0).
func TestEstimateBodyTightenings(t *testing.T) {
	m := tinyModel(3)
	eng := testEngine(t, m, serving.Config{})
	defer eng.Close()
	mux := newServeMux(eng, serveOptions{})
	x := strings.Join(binXStrings(m), ",")
	nullX := strings.Replace(x, "0", "null", 1)
	for _, tc := range []struct{ path, body string }{
		{"/estimate", `{"x":[` + x + `],"tau":1}garbage`},
		{"/estimate", `{"x":[` + x + `],"tau":1} {}`},
		{"/estimate", `{"x":[` + nullX + `],"tau":1}`},
		{"/feedback", `{"x":[` + x + `],"tau":1,"actual":2}garbage`},
		{"/feedback", `{"x":[` + nullX + `],"tau":1,"actual":2}`},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad JSON body") {
			t.Errorf("replica %s %q: %d %s, want 400 bad JSON body", tc.path, tc.body, w.Code, w.Body)
		}
		if _, _, err := cluster.ExtractKey(httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))); err == nil {
			t.Errorf("router %s %q: routed, want refused", tc.path, tc.body)
		}
	}
	// The same bodies without the trailing data or the null are served.
	for _, tc := range []struct{ path, body string }{
		{"/estimate", `{"x":[` + x + `],"tau":1} ` + "\n"},
		{"/feedback", `{"x":[` + x + `],"tau":1,"actual":2}`},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != http.StatusOK {
			t.Errorf("replica %s %q: %d %s, want 200", tc.path, tc.body, w.Code, w.Body)
		}
	}
}

// TestAdminBodiesRefuseTrailingData: each admin endpoint, the replica's
// /admin/reload and /admin/autopilot and the router's /admin/rollout,
// accepts exactly one JSON value. A second value or junk after it is a 400
// that changes nothing; the same body alone is served.
func TestAdminBodiesRefuseTrailingData(t *testing.T) {
	m := tinyModel(3)
	eng := testEngine(t, m, serving.Config{})
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := checkpoint.SaveModel(path, tinyModel(5)); err != nil {
		t.Fatal(err)
	}
	pilot, err := autopilot.New(autopilot.Config{Dir: t.TempDir()}, eng, monitor.New(monitor.Config{}, obs.NewRegistry()),
		func([]float64, int) ([]float64, error) { return nil, errors.New("no oracle") })
	if err != nil {
		t.Fatal(err)
	}
	replica := newServeMux(eng, serveOptions{pilot: pilot})

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := cluster.New(cluster.Config{Replicas: []string{dead.URL}, EjectAfter: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Prober().ProbeOnce(context.Background())
	router := rt.Handler()

	// state reads what an accepted body would change at each endpoint.
	state := func(h http.Handler, endpoint string) string {
		switch endpoint {
		case "/admin/reload":
			return fmt.Sprint(eng.Registry().Current().Version)
		case "/admin/autopilot":
			return fmt.Sprint(pilot.Status(), pilot.Forced())
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, endpoint, nil))
		return w.Body.String()
	}
	for _, tc := range []struct {
		h        http.Handler
		endpoint string
		body     string
		accepted int // the status of the body without its trailing data
	}{
		{replica, "/admin/reload", `{"path":"` + path + `"}`, http.StatusOK},
		{replica, "/admin/autopilot", `{"action":"inhibit"}`, http.StatusOK},
		{router, "/admin/rollout", `{"path":"` + path + `"}`, http.StatusServiceUnavailable},
	} {
		for _, trailing := range []string{` {"path":"other.gob","action":"force"}`, `{}`, ` junk`, `]`} {
			before := state(tc.h, tc.endpoint)
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.endpoint, strings.NewReader(tc.body+trailing)))
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad JSON body") {
				t.Errorf("%s %q: %d %s, want 400 bad JSON body", tc.endpoint, tc.body+trailing, w.Code, w.Body)
			}
			if after := state(tc.h, tc.endpoint); after != before {
				t.Errorf("%s %q: refused, yet changed %s -> %s", tc.endpoint, tc.body+trailing, before, after)
			}
		}
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.endpoint, strings.NewReader(tc.body+" \n")))
		if w.Code != tc.accepted {
			t.Errorf("%s %q: %d %s, want %d", tc.endpoint, tc.body, w.Code, w.Body, tc.accepted)
		}
	}
	if v := eng.Registry().Current().Version; v != 2 || !pilot.Inhibited() || pilot.Forced() {
		t.Fatalf("after one accepted body each: version %d, inhibited %v, forced %v; want 2, true, false",
			v, pilot.Inhibited(), pilot.Forced())
	}
}
