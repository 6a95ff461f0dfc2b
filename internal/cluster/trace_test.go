package cluster

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"cardnet/internal/obs"
)

// stageHist is the router's histogram of one stage in reg.
func stageHist(reg *obs.Registry, stage string) *obs.Histogram {
	return reg.Histogram("cluster.stage."+stage+".seconds", obs.TimeBuckets())
}

// stageSumSeconds adds up every per-stage histogram's Sum in reg.
func stageSumSeconds(reg *obs.Registry) float64 {
	var total float64
	for _, s := range []string{"route", "pick", "attempt", "proxy", "relay"} {
		total += stageHist(reg, s).Sum()
	}
	return total
}

// TestRouterStageHistogramsTileProxy is the tiling property: because every
// stage is marked off one trace and the e2e histogram observes that trace's
// Total (last mark − start, not a second clock read), the per-stage
// histograms must sum to cluster.proxy.seconds — on success, failover,
// bad-request, no-replica, and retry-exhausted paths alike. Only float64
// accumulation noise is tolerated.
func TestRouterStageHistogramsTileProxy(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	reg := obs.NewRegistry()
	rt, ts := newTestRouter(t, Config{Registry: reg, Retries: 1}, a, b)

	post := func(body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// Success path, spread across keys.
	for i := 0; i < 40; i++ {
		post(estimateBody(i))
	}
	// Failover path: one replica rejecting forces attempt.1 -> attempt.2.
	a.overloaded.Store(true)
	for i := 0; i < 20; i++ {
		post(estimateBody(i))
	}
	// Retry-exhausted path: both reject, the fleet 503 is relayed.
	b.overloaded.Store(true)
	for i := 0; i < 10; i++ {
		post(estimateBody(i))
	}
	b.overloaded.Store(false)
	a.overloaded.Store(false)
	// Bad-request path: only route + relay stages exist.
	for i := 0; i < 10; i++ {
		post("{broken")
	}
	// No-replica path: route + pick + relay.
	rt.ring.Remove(a.base())
	rt.ring.Remove(b.base())
	for i := 0; i < 10; i++ {
		post(estimateBody(i))
	}

	hProxy := reg.Histogram("cluster.proxy.seconds", obs.TimeBuckets())
	if hProxy.Count() != 90 {
		t.Fatalf("e2e histogram saw %d requests, want 90", hProxy.Count())
	}
	e2e := hProxy.Sum()
	stages := stageSumSeconds(reg)
	// Tolerance is float64 addition noise only: each request contributes a
	// handful of ns-resolution terms, so anything beyond ~1e-9·n is a gap in
	// the tiling, i.e. a nanosecond the stages failed to attribute.
	eps := 1e-9 * float64(hProxy.Count())
	if diff := math.Abs(e2e - stages); diff > eps {
		t.Fatalf("stage sums do not tile e2e: stages=%.9fs e2e=%.9fs diff=%.3gs (eps %.3g)", stages, e2e, diff, eps)
	}
	if e2e <= 0 {
		t.Fatal("e2e sum is zero; the property test drove no traffic")
	}

	// Failovers amplified attempts: every exhausted request burned its full
	// 2-attempt budget, plus at least one failover before the Retry-After
	// cooloff steered later keys away from the rejecting replica.
	if c := stageHist(reg, "attempt").Count(); c < 21 {
		t.Fatalf("attempt stage count %d, want >=21 (10 exhausted x2 + >=1 failover)", c)
	}
	if c := stageHist(reg, "proxy").Count(); c != 60 {
		t.Fatalf("proxy stage count %d, want 60 successful relays", c)
	}
	if c := stageHist(reg, "relay").Count(); c != 90 {
		t.Fatalf("relay stage count %d, want one per request", c)
	}
}
