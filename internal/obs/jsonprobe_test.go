package obs

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newJSONPeer serves body verbatim on every path, like a replica's /healthz.
func newJSONPeer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatherJSON fetches live, dead and garbage-answering peers in one
// sweep: snapshots keep input order, and a peer is an error unless its body
// is exactly one JSON object.
func TestGatherJSON(t *testing.T) {
	p1 := newJSONPeer(t, `{"status":"ok","estimate_requests":10}`)
	p2 := newJSONPeer(t, " {\"status\":\"warn\"}\n")
	urls := []string{p1.URL + "/healthz", p2.URL + "/healthz", "http://127.0.0.1:1/healthz"}
	for _, bad := range []string{`null`, `[{"status":"ok"}]`, `"ok"`, `{"status":"ok"} trailing`, `{"status":`} {
		urls = append(urls, newJSONPeer(t, bad).URL)
	}
	snaps := GatherJSON(context.Background(), nil, urls)
	if len(snaps) != len(urls) {
		t.Fatalf("got %d snapshots for %d peers", len(snaps), len(urls))
	}
	if snaps[0].Err != nil || snaps[1].Err != nil {
		t.Fatalf("live peers errored: %v / %v", snaps[0].Err, snaps[1].Err)
	}
	if snaps[0].Doc["estimate_requests"] != 10.0 || snaps[1].Doc["status"] != "warn" {
		t.Fatalf("peer docs out of order: %v / %v", snaps[0].Doc, snaps[1].Doc)
	}
	for i, s := range snaps[2:] {
		if s.Err == nil || s.Doc != nil {
			t.Fatalf("peer %s: err %v, doc %v; want an error and no doc", urls[i+2], s.Err, s.Doc)
		}
	}
}

// TestGatherJSONCapsBody streams a well-formed object past maxJSONBytes:
// the fetch fails as a whole instead of decoding without bound.
func TestGatherJSONCapsBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		bw := bufio.NewWriter(w)
		fmt.Fprint(bw, `{"pad":"`)
		for n := 0; n <= maxJSONBytes; n += 64 {
			if _, err := bw.WriteString(strings.Repeat("x", 64)); err != nil {
				return // the client hung up at the cap
			}
		}
		fmt.Fprint(bw, `"}`)
		bw.Flush()
	}))
	t.Cleanup(ts.Close)
	snap := GatherJSON(context.Background(), nil, []string{ts.URL})[0]
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "exceeds") || snap.Doc != nil {
		t.Fatalf("oversized body: err %v, doc %v", snap.Err, snap.Doc != nil)
	}
}
