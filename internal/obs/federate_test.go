package obs

import (
	"bufio"
	"bytes"
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

func TestGatherRemoteAndWriteFederated(t *testing.T) {
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
	if snaps[2].Err == nil {
		t.Fatal("dead peer scraped without error")
	}

	var buf bytes.Buffer
	if err := WriteFederated(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Acceptance criterion: federation output re-parses cleanly.
	series, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("federated output failed to re-parse: %v\n%s", err, out)
	}

	inst1, inst2 := snaps[0].Instance, snaps[1].Instance
	if inst1 == inst2 {
		t.Fatalf("instances collide: %q", inst1)
	}
	if got := series[`serving_requests_total{instance="`+inst1+`"}`]; got != 10 {
		t.Fatalf("peer1 counter = %v in %v", got, series)
	}
	if got := series[`serving_requests_total{instance="`+inst2+`"}`]; got != 99 {
		t.Fatalf("peer2 counter = %v", got)
	}
	// Multi-label series keep their labels plus the instance.
	if got := series[FormatSeries("serving_e2e_seconds_bucket",
		[]Label{{Name: "le", Value: "0.1"}, {Name: "instance", Value: inst1}})]; got != 1 {
		t.Fatalf("bucket series lost labels: %v", series)
	}
	if got := series[FormatSeries("cardnet_build_info",
		[]Label{{Name: "version", Value: "v1"}, {Name: "instance", Value: inst1}})]; got != 1 {
		t.Fatalf("info series not federated: %v", series)
	}
	// Per-peer liveness.
	for i, want := range []float64{1, 1, 0} {
		id := FormatSeries("federate_up", []Label{{Name: "instance", Value: snaps[i].Instance}})
		if got := series[id]; got != want {
			t.Fatalf("%s = %v, want %v", id, got, want)
		}
	}
}

func TestWriteFederatedRenamesNestedInstance(t *testing.T) {
	snap := RemoteSnapshot{
		Instance: "router:9000",
		Series: map[string]float64{
			FormatSeries("qps", []Label{{Name: "instance", Value: "inner:8089"}}): 7,
		},
	}
	var buf bytes.Buffer
	if err := WriteFederated(&buf, []RemoteSnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	want := FormatSeries("qps", []Label{
		{Name: "exported_instance", Value: "inner:8089"},
		{Name: "instance", Value: "router:9000"}})
	if series[want] != 7 {
		t.Fatalf("nested instance not renamed: %v", series)
	}
}

func TestSeriesSnapshotMatchesWriter(t *testing.T) {
	series, err := promFixture().SeriesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if series["serving_requests_total"] != 42 || series["serving_queue_depth"] != 3.5 {
		t.Fatalf("snapshot drifted: %v", series)
	}
}

// TestGatherRemoteCapsBody streams a well-formed exposition past
// maxScrapeBytes: the scrape fails as a whole (federate_up 0) instead of
// parsing without bound or returning a partial series map.
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
	var buf bytes.Buffer
	if err := WriteFederated(&buf, []RemoteSnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	if want := FormatSeries("federate_up", []Label{{Name: "instance", Value: snap.Instance}}) + " 0\n"; buf.String() != want {
		t.Fatalf("federated %q, want %q", buf.String(), want)
	}
}
