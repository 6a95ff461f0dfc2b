package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardnet/internal/autopilot"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// FuzzFeedback drives any body through the replica's POST /feedback handler
// over a small engine, a monitor on its own registry and an autopilot whose
// loop does not run, so only the handler feeds its sample store. The answer
// is 200 or a 4xx and never a panic. An accepted body advances
// monitor.feedback.samples by exactly one, grows the pilot's samples by at
// most one (a query it already holds adds none) and answers a finite
// q-error of at least 1; a refused one leaves the counter and the samples
// alone.
func FuzzFeedback(f *testing.F) {
	m := tinyModel(3)
	x := "[" + strings.Join(binXStrings(m), ",") + "]"
	for _, body := range []string{
		`{"x":` + x + `,"tau":1,"actual":5}`,
		`{"x":` + x + `,"tau":0,"actual":0}`,
		`{"x":` + x + `,"tau":1,"actual":1.7e308}`,
		`{"x":` + x + `,"tau":1,"actual":1e400}`,
		`{"x":` + x + `,"tau":1,"actual":-3}`,
		`{"x":` + x + `,"tau":99,"actual":5}`,
		`{"x":` + x + `,"actual":5}`,
		`{"x":` + x + `,"tau":1}`,
		`{"x":[1,0],"tau":1,"actual":5}`,
		`{"x":` + strings.Replace(x, "1", "0.5", 1) + `,"tau":1,"actual":5}`,
		`{"x":` + x + `,"tau":1,"actual":"NaN"}`,
		`{"x":` + x + `,"tau":1,"actual":5}{"x":[]}`,
		`{nope`,
		``,
	} {
		f.Add([]byte(body))
	}
	eng := testEngine(f, m, serving.Config{})
	f.Cleanup(eng.Close)
	reg := obs.NewRegistry()
	samples := reg.Counter("monitor.feedback.samples")
	mon := monitor.New(monitor.Config{}, reg)
	pilot, err := autopilot.New(autopilot.Config{Dir: f.TempDir()}, eng, mon,
		func([]float64, int) ([]float64, error) { return nil, errors.New("no oracle") })
	if err != nil {
		f.Fatal(err)
	}
	h := handleFeedback(eng, mon, pilot)
	f.Fuzz(func(t *testing.T, body []byte) {
		before, pilotBefore := samples.Value(), pilot.Samples()
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(string(body))))
		after, pilotAfter := samples.Value(), pilot.Samples()
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
			}
			if after != before || pilotAfter != pilotBefore {
				t.Fatalf("refused body %q moved the sample count %d -> %d, the pilot's samples %d -> %d",
					body, before, after, pilotBefore, pilotAfter)
			}
			return
		}
		if after != before+1 {
			t.Fatalf("accepted body %q advanced the sample count %d -> %d", body, before, after)
		}
		if pilotAfter != pilotBefore && pilotAfter != pilotBefore+1 {
			t.Fatalf("accepted body %q moved the pilot's samples %d -> %d", body, pilotBefore, pilotAfter)
		}
		var out struct {
			QError float64 `json:"qerror"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("accepted body %q answered %q: %v", body, w.Body, err)
		}
		if math.IsInf(out.QError, 0) || math.IsNaN(out.QError) || out.QError < 1 {
			t.Fatalf("accepted body %q answered q-error %v", body, out.QError)
		}
	})
}
