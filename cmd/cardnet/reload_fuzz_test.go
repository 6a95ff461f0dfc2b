package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardnet/internal/serving"
)

// FuzzReload drives any body through the replica's POST /admin/reload
// handler over a small engine. Nothing may panic, and the answer carries a
// JSON body. A refused body gets a 4xx and leaves the served model version
// as it was; only a body naming a loadable, shape-compatible model file
// gets 200, and that advances the version by exactly one. Seeds live in
// testdata/fuzz/FuzzReload: paths that are empty, missing, a directory, a
// device, a file that is no model, and bodies that are not one object of a
// string path.
func FuzzReload(f *testing.F) {
	eng := testEngine(f, tinyModel(3), serving.Config{})
	f.Cleanup(eng.Close)
	h := handleReload(eng)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := eng.Registry().Current().Version
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodPost, "/admin/reload", strings.NewReader(string(body))))
		after := eng.Registry().Current().Version
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("body %q: status %d answered %q, not JSON", body, w.Code, w.Body)
		}
		if w.Code == http.StatusOK {
			if after != before+1 {
				t.Fatalf("accepted body %q moved the version %d -> %d", body, before, after)
			}
			return
		}
		if w.Code < 400 || w.Code > 499 {
			t.Fatalf("body %q: status %d %s, want a 4xx", body, w.Code, w.Body)
		}
		if after != before {
			t.Fatalf("refused body %q moved the version %d -> %d", body, before, after)
		}
	})
}
