//go:build !race

// The race detector makes sync.Pool drop a random share of the items put
// back, so the handler's pooled response buffer reallocates and allocation
// counts drift; these pins run without it (`make allocs`).

package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardnet/internal/serving"
)

// TestEstimateHandlerAllocs pins the allocations of one cache-hit POST
// /estimate through the replica handler, not sampled for the trace log: the
// request and response-recorder harness is measured alone and subtracted, so
// the count is the handler's own (body read and decode, the trace and its
// ID, the trace header, the e2e exemplar, the cache key and the response
// write into the recorder).
func TestEstimateHandlerAllocs(t *testing.T) {
	const want = 16
	m := tinyModel(3)
	eng := testEngine(t, m, serving.Config{})
	h := handleEstimate(eng, nil, nil)
	body := fmt.Sprintf(`{"x":[%s],"tau":2}`, strings.Join(binXStrings(m), ","))
	harness := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body))
	}
	w, r := harness()
	h(w, r) // the miss that fills the cache
	if w.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", w.Code, w.Body)
	}
	base := testing.AllocsPerRun(200, func() { harness() })
	total := testing.AllocsPerRun(200, func() {
		w, r := harness()
		h(w, r)
	})
	if got := total - base; got != want {
		t.Fatalf("cache-hit /estimate handler: %v allocs per request, want %d", got, want)
	}
}
