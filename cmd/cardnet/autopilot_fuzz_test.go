package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"cardnet/internal/autopilot"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// pilotView is what the operator surface can change on a pilot: its status
// and whether a force is armed.
type pilotView struct {
	autopilot.Status
	forced bool
}

// FuzzAutopilot drives any body through the replica's POST /admin/autopilot
// handler, over a fresh pilot per input whose loop does not run (so only the
// handler can change it), inhibited first when the fuzzer says so. The
// answer is 200 or 400 and never a panic, and without a pilot it is 404. A
// refused body leaves the pilot's status as it was. An accepted one is
// exactly one JSON value, with nothing after it, that names
// force, inhibit or resume and changes exactly what that action changes:
// force arms a trigger, inhibit and resume set the inhibit flag. The 200
// body is the status after the action.
func FuzzAutopilot(f *testing.F) {
	for _, body := range []string{
		`{"action":"force"}`,
		`{"action":"inhibit"}`,
		`{"action":"resume"}`,
		`{"ACTION":"force"}`,
		`{"action":"Force"}`,
		`{"action":"defenestrate"}`,
		`{"action":""}`,
		`{"action":1}`,
		`{"action":"resume"}{"action":"inhibit"}`,
		`{}`,
		`null`,
		`[`,
		``,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	m := tinyModel(3)
	eng := testEngine(f, m, serving.Config{})
	f.Cleanup(eng.Close)
	mon := monitor.New(monitor.Config{}, obs.NewRegistry())
	label := func([]float64, int) ([]float64, error) { return nil, errors.New("no oracle") }
	dir := f.TempDir()
	absent := handleAutopilot(nil)
	f.Fuzz(func(t *testing.T, inhibited bool, body []byte) {
		pilot, err := autopilot.New(autopilot.Config{Dir: dir}, eng, mon, label)
		if err != nil {
			t.Fatal(err)
		}
		pilot.SetInhibited(inhibited)
		before := pilotView{pilot.Status(), pilot.Forced()}
		w := httptest.NewRecorder()
		handleAutopilot(pilot)(w, httptest.NewRequest(http.MethodPost, "/admin/autopilot", bytes.NewReader(body)))
		after := pilotView{pilot.Status(), pilot.Forced()}
		switch w.Code {
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("refused body %q changed the pilot: %+v -> %+v", body, before, after)
			}
		case http.StatusOK:
			var req autopilotRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("accepted body %q is not one JSON value: %v", body, err)
			}
			want := before
			switch req.Action {
			case "force":
				want.forced = true
			case "inhibit":
				want.Inhibited = true
			case "resume":
				want.Inhibited = false
			default:
				t.Fatalf("accepted body %q names action %q", body, req.Action)
			}
			if after != want {
				t.Fatalf("body %q: pilot %+v, want %+v", body, after, want)
			}
			var got autopilot.Status
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got != after.Status {
				t.Fatalf("body %q answered %s, want the status %+v (%v)", body, w.Body, after.Status, err)
			}
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}

		w = httptest.NewRecorder()
		absent(w, httptest.NewRequest(http.MethodPost, "/admin/autopilot", bytes.NewReader(body)))
		if w.Code != http.StatusNotFound {
			t.Fatalf("no pilot: status %d for %q", w.Code, body)
		}
	})
}
