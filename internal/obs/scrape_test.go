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

// newPeer serves a registry's Prometheus exposition like `cardnet serve`
// /metrics does.
func newPeer(t *testing.T, r *Registry) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		r.WritePrometheus(w)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestGatherRemote(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("serving.requests").Add(10)
	r1.Histogram("serving.e2e.seconds", []float64{0.01, 0.1}).Observe(0.05)
	r1.SetInfo("cardnet.build.info", Label{Name: "version", Value: "v1"})
	r2 := NewRegistry()
	r2.Counter("serving.requests").Add(99)
	r2.Gauge("runtime.goroutines").Set(12)

	p1, p2 := newPeer(t, r1), newPeer(t, r2)
	urls := []string{p1.URL + "/metrics", p2.URL + "/metrics", "http://127.0.0.1:1/metrics"}
	snaps := GatherRemote(context.Background(), nil, urls)
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	if snaps[0].Err != nil || snaps[1].Err != nil {
		t.Fatalf("live peers errored: %v / %v", snaps[0].Err, snaps[1].Err)
	}
	if snaps[2].Err == nil || snaps[2].Series != nil {
		t.Fatalf("dead peer: err %v, %d series", snaps[2].Err, len(snaps[2].Series))
	}
	// Snapshots keep input order.
	s1, s2 := snaps[0].Series, snaps[1].Series
	if s1["serving_requests_total"] != 10 || s2["serving_requests_total"] != 99 {
		t.Fatalf("peer counters: %v / %v", s1, s2)
	}
	if s2["runtime_goroutines"] != 12 {
		t.Fatalf("peer2 gauge: %v", s2)
	}
	if got := s1[FormatSeries("serving_e2e_seconds_bucket", []Label{{Name: "le", Value: "0.1"}})]; got != 1 {
		t.Fatalf("bucket series lost its le label: %v", s1)
	}
	if got := s1[FormatSeries("cardnet_build_info", []Label{{Name: "version", Value: "v1"}})]; got != 1 {
		t.Fatalf("info series not scraped: %v", s1)
	}
}

// TestGatherRemoteCapsBody streams a well-formed exposition past
// maxScrapeBytes: the scrape fails as a whole instead of parsing without
// bound or returning a partial series map.
func TestGatherRemoteCapsBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		bw := bufio.NewWriter(w)
		for i, n := 0, 0; n <= maxScrapeBytes; i++ {
			k, err := fmt.Fprintf(bw, "series_%d %d\n", i, i)
			if err != nil {
				return // the scraper hung up at the cap
			}
			n += k
		}
		bw.Flush()
	}))
	t.Cleanup(ts.Close)
	snap := GatherRemote(context.Background(), nil, []string{ts.URL})[0]
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "exceeds") || snap.Series != nil {
		t.Fatalf("oversized scrape: err %v, %d series", snap.Err, len(snap.Series))
	}
}
