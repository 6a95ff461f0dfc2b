package cluster

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/obs/slo"
)

// TestProberEjectAndRestore walks a replica through the health lifecycle:
// healthy -> EjectAfter consecutive failed probes -> ejected -> first
// successful probe -> restored, with OnChange firing exactly at the
// transitions.
func TestProberEjectAndRestore(t *testing.T) {
	good := newFakeReplica(t, "good")
	flaky := newFakeReplica(t, "flaky")

	var mu sync.Mutex
	var events []string
	p := NewProber([]string{good.base(), flaky.base()}, ProberConfig{
		EjectAfter: 2,
		Registry:   obs.NewRegistry(),
		OnChange: func(base string, healthy bool) {
			mu.Lock()
			if healthy {
				events = append(events, "restore:"+base)
			} else {
				events = append(events, "eject:"+base)
			}
			mu.Unlock()
		},
	})
	defer p.Stop()

	ctx := context.Background()
	p.ProbeOnce(ctx)
	if got := p.Healthy(); len(got) != 2 {
		t.Fatalf("healthy=%v, want both", got)
	}
	for _, st := range p.Snapshot() {
		if st.Status != "ok" || !st.Healthy {
			t.Fatalf("replica %s: %+v", st.Base, st)
		}
		if st.ModelVersion != 1 {
			t.Fatalf("model version %d, want 1", st.ModelVersion)
		}
	}

	flaky.healthy.Store(false)
	p.ProbeOnce(ctx) // failure 1: not yet ejected
	if got := p.Healthy(); len(got) != 2 {
		t.Fatalf("ejected after a single failure: %v", got)
	}
	p.ProbeOnce(ctx) // failure 2: ejected
	if got := p.Healthy(); len(got) != 1 || got[0] != good.base() {
		t.Fatalf("healthy=%v, want only %s", got, good.base())
	}

	flaky.healthy.Store(true)
	p.ProbeOnce(ctx) // first success restores immediately
	if got := p.Healthy(); len(got) != 2 {
		t.Fatalf("healthy=%v after recovery, want both", got)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{"eject:" + flaky.base(), "restore:" + flaky.base()}
	if len(events) != len(want) || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events=%v, want %v", events, want)
	}
}

// TestProberScrapesEstimateCounter checks that the replica's cumulative
// estimate counter, the estimate_requests field of its /healthz, lands in
// the snapshot.
func TestProberScrapesEstimateCounter(t *testing.T) {
	rep := newFakeReplica(t, "a")
	rep.mu.Lock()
	rep.estimates = 17
	rep.mu.Unlock()
	p := NewProber([]string{rep.base()}, ProberConfig{Registry: obs.NewRegistry()})
	defer p.Stop()
	p.ProbeOnce(context.Background())
	if got := p.Snapshot()[0].EstimateRequests; got != 17 {
		t.Fatalf("estimate_requests=%v, want 17", got)
	}
}

// TestProberOneRequestPerReplica counts what each replica sees: every sweep
// is exactly one GET of /healthz, and nothing else (no /metrics scrape).
func TestProberOneRequestPerReplica(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	p := NewProber([]string{a.base(), b.base()}, ProberConfig{Registry: obs.NewRegistry()})
	defer p.Stop()
	const sweeps = 3
	for i := 0; i < sweeps; i++ {
		p.ProbeOnce(context.Background())
	}
	for _, rep := range []*fakeReplica{a, b} {
		rep.mu.Lock()
		hz, met, paths := rep.hits["/healthz"], rep.hits["/metrics"], len(rep.hits)
		rep.mu.Unlock()
		if hz != sweeps || met != 0 || paths != 1 {
			t.Fatalf("replica %s over %d sweeps: /healthz %d, /metrics %d, %d paths; want one /healthz per sweep and nothing else",
				rep.id, sweeps, hz, met, paths)
		}
	}
}

// TestProberStartStop exercises the periodic loop itself briefly under the
// race detector.
func TestProberStartStop(t *testing.T) {
	rep := newFakeReplica(t, "a")
	reg := obs.NewRegistry()
	p := NewProber([]string{rep.base()}, ProberConfig{Interval: 5 * time.Millisecond, Registry: reg})
	p.Start()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("cluster.probe.sweeps").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never swept")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
}

// TestE2ERatesRestartAndLayoutChange pins the sweep-delta edge cases on
// the /healthz e2e snapshots: a replica that restarted between sweeps
// (counts went down) clamps each delta to zero instead of reporting
// negative rates, and a bucket layout change between sweeps omits p99
// rather than differencing unrelated buckets.
func TestE2ERatesRestartAndLayoutChange(t *testing.T) {
	prev := e2eHist([3]int{10, 20, 40}, 50)
	restarted := e2eHist([3]int{1, 2, 4}, 4)
	if qps, p99 := e2eRates(prev, restarted, 2*time.Second); qps != 0 || p99 != 0 {
		t.Fatalf("restart: qps %v p99 %v, want 0 and 0", qps, p99)
	}
	// A restarted replica that already filled one bucket past the old one:
	// only that bucket's delta (10 in the 10–100ms bucket) counts.
	busy := e2eHist([3]int{0, 0, 30}, 35)
	want := slo.BucketQuantile([]float64{0.001, 0.01, 0.1}, []float64{0, 0, 10, 0}, 0.99)
	if qps, p99 := e2eRates(prev, busy, 2*time.Second); qps != 0 || p99 != want {
		t.Fatalf("busy restart: qps %v p99 %v, want 0 and %v", qps, p99, want)
	}
	relaid := e2eHist([3]int{10, 30, 60}, 70)
	relaid.Buckets[2].UpperBound = 0.2
	if qps, p99 := e2eRates(prev, relaid, 2*time.Second); qps != 10 || p99 != 0 {
		t.Fatalf("layout change: qps %v p99 %v, want 10 and no p99", qps, p99)
	}
	grown := e2eHist([3]int{10, 30, 60}, 70)
	grown.Buckets = append(grown.Buckets, obs.Bucket{UpperBound: 1, Count: 70})
	if _, p99 := e2eRates(prev, grown, 2*time.Second); p99 != 0 {
		t.Fatalf("added bucket: p99 %v, want none", p99)
	}
}

// TestE2ESnapshotRejectsMalformed checks the decode of a /healthz e2e
// field: the replica's own snapshot round-trips, and anything that is not
// a latency histogram's snapshot reads as absent.
func TestE2ESnapshotRejectsMalformed(t *testing.T) {
	decode := func(e2e string) *obs.HistSnapshot {
		var doc map[string]any
		if err := json.Unmarshal([]byte(`{"e2e":`+e2e+`}`), &doc); err != nil {
			t.Fatal(err)
		}
		return e2eSnapshot(doc)
	}
	want := e2eHist([3]int{1, 2, 3}, 4)
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode(string(raw)); got == nil || got.Count != 4 || len(got.Buckets) != 3 || got.Buckets[2] != want.Buckets[2] {
		t.Fatalf("own snapshot %s decoded as %+v", raw, got)
	}
	if got := e2eSnapshot(map[string]any{}); got != nil {
		t.Fatalf("absent e2e decoded as %+v", got)
	}
	for _, bad := range []string{
		`"fast"`,
		`{"count":-1}`,
		`{"count":1.5}`,
		`{"count":5,"buckets":[{"le":0.1,"count":-2}]}`,
		`{"count":5,"buckets":[{"le":0.1,"count":3},{"le":1,"count":2}]}`,
		`{"count":2,"buckets":[{"le":0.1,"count":3}]}`,
		`{"count":5,"buckets":[{"le":1,"count":1},{"le":0.1,"count":2}]}`,
		`{"count":5,"buckets":[{"le":-1,"count":1}]}`,
		`{"count":5,"buckets":[{"le":"+Inf","count":1}]}`,
		`{"count":5,"buckets":[{"le":"NaN","count":1}]}`,
	} {
		if got := decode(bad); got != nil {
			t.Errorf("e2e %s decoded as %+v, want absent", bad, got)
		}
	}
}
