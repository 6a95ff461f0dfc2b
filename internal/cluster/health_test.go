package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cardnet/internal/obs"
	"cardnet/internal/serving"
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

// TestProberScrapesEstimateCounter checks the /metrics side of the probe:
// the replica's cumulative estimate counter lands in the snapshot.
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

// TestE2ERatesRestartAndLayoutChange pins the sweep-delta edge cases: a
// replica that restarted between sweeps (counters went down) clamps to
// zero instead of reporting negative rates, and a bucket layout change
// between sweeps omits p99 rather than differencing unrelated buckets.
func TestE2ERatesRestartAndLayoutChange(t *testing.T) {
	if replicaE2EHistogram != serving.E2EHistogram {
		t.Fatalf("prober reads %q, replicas write %q", replicaE2EHistogram, serving.E2EHistogram)
	}
	parse := func(text string) map[string]float64 {
		series, err := obs.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	prev := parse(e2eExposition([3]int{10, 20, 40}, 50))
	restarted := parse(e2eExposition([3]int{1, 2, 4}, 4))
	if qps, p99 := e2eRates(prev, restarted, 2*time.Second); qps != 0 || p99 != 0 {
		t.Fatalf("restart: qps %v p99 %v, want 0 and 0", qps, p99)
	}
	relaid := parse(strings.Replace(e2eExposition([3]int{10, 30, 60}, 70), `le="0.1"`, `le="0.2"`, 1))
	if qps, p99 := e2eRates(prev, relaid, 2*time.Second); qps != 10 || p99 != 0 {
		t.Fatalf("layout change: qps %v p99 %v, want 10 and no p99", qps, p99)
	}
	grown := parse(e2eExposition([3]int{10, 30, 60}, 70) + "serving_e2e_seconds_bucket{le=\"1\"} 70\n")
	if _, p99 := e2eRates(prev, grown, 2*time.Second); p99 != 0 {
		t.Fatalf("added bucket: p99 %v, want none", p99)
	}
}
