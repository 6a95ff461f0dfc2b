package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cardnet/internal/metrics"
)

func TestSummarizeNeedsTenSamplesBeyondP99(t *testing.T) {
	var l latencies
	for i := 1; i <= 999; i++ {
		l = append(l, float64(i))
	}
	if _, err := l.summarize(); err == nil {
		t.Fatal("999 samples: p99 reported with fewer than 10 samples beyond it")
	}
	l = append(l, 1000)
	s, err := l.summarize()
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.P99 != 990 {
		t.Fatalf("summary = %+v, want N=1000 P50=500 P90=900 P99=990", s)
	}
}

func TestSupports(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{20, 0.5, true}, {19, 0.5, false}, {1000, 0.99, true}, {999, 0.99, false}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestQErrorFloorsAtOne(t *testing.T) {
	for _, c := range [][3]float64{{0, 0, 1}, {0, 0.4, 1}, {0.5, 0, 1}, {10, 5, 2}, {5, 10, 2}, {0, 4, 4}} {
		if got := metrics.QError(c[0], c[1]); got != c[2] {
			t.Errorf("QError(%v, %v) = %v, want %v", c[0], c[1], got, c[2])
		}
	}
}

func TestOpSequencesFollowTheSeed(t *testing.T) {
	a, b, c := pointOps(500, 20, 1), pointOps(500, 20, 1), pointOps(500, 20, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("point ops differ for the same seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("point ops equal for different seeds")
	}
	for i, o := range a {
		if o.Query != i || o.Tau < 0 || o.Tau > 20 {
			t.Fatalf("point op %d = %+v: queries must not repeat and τ must be in [0, 20]", i, o)
		}
	}
	z1, z2, z3 := zipfOps(500, 600, 20, zipfS, 1), zipfOps(500, 600, 20, zipfS, 1), zipfOps(500, 600, 20, zipfS, 2)
	if !reflect.DeepEqual(z1, z2) {
		t.Error("zipf ops differ for the same seed")
	}
	if reflect.DeepEqual(z1, z3) {
		t.Error("zipf ops equal for different seeds")
	}
}

// The sweep pool must not fit the server's cache, or sweep-zipf would turn
// into an all-hit workload once warm.
func TestZipfPoolExceedsCache(t *testing.T) {
	keys := sweepPool * (fixtureTauMax + 1)
	if keys < 2*defaultCache {
		t.Fatalf("pool holds %d keys, want well above the %d-entry cache", keys, defaultCache)
	}
	// The queries one short run touches already overflow the cache.
	seen := map[int]bool{}
	for _, q := range zipfQueries(sweepWarm+minOps, sweepPool, zipfS, 1) {
		seen[q] = true
	}
	if n := len(seen) * (fixtureTauMax + 1); n <= defaultCache {
		t.Fatalf("a short run touches %d keys, not above the %d-entry cache", n, defaultCache)
	}
}

func TestMetricsDeltas(t *testing.T) {
	before, err := parseMetrics([]byte(`{"counters":{"serving.cache.hits":10,"http.errors":1},
		"gauges":{"serving.cache.size":5},
		"histograms":{"serving.batch.size":{"count":4,"sum":6,"mean":1.5}},
		"info":{"cardnet.build.info":{"sha":"abc"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(`{"counters":{"serving.cache.hits":25,"http.errors":1,"serving.cache.misses":3},
		"gauges":{"serving.cache.size":9},
		"histograms":{"serving.batch.size":{"count":10,"sum":20}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if d := counterDelta(before, after, "serving.cache.hits"); d != 15 {
		t.Errorf("hits delta = %v, want 15", d)
	}
	if d := counterDelta(before, after, "serving.cache.misses"); d != 3 {
		t.Errorf("delta of a counter first seen after = %v, want 3", d)
	}
	if d := counterDelta(before, after, "never.registered"); d != 0 {
		t.Errorf("delta of an absent counter = %v, want 0", d)
	}
	if n, s := histDelta(before, after, "serving.batch.size"); n != 6 || s != 14 {
		t.Errorf("histogram delta = (%v, %v), want (6, 14)", n, s)
	}
	if before.Info["cardnet.build.info"]["sha"] != "abc" {
		t.Error("build info sha not parsed")
	}
	if _, err := parseMetrics([]byte("serving_requests_total 3")); err == nil {
		t.Error("Prometheus text parsed as the JSON snapshot")
	}
}

func TestParseHeapProfile(t *testing.T) {
	body := `heap profile: 3: 1024 [40: 4096] @ heap/1048576
1: 512 [1: 512] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 19000000
# TotalAlloc = 88000000
# HeapAlloc = 19004096
# HeapSys = 30000000
# NumGC = 42
# DebugGC = false
`
	h, err := parseHeapProfile(body)
	if err != nil {
		t.Fatal(err)
	}
	if h.HeapAlloc != 19004096 || h.NumGC != 42 {
		t.Fatalf("parsed %+v, want HeapAlloc 19004096 NumGC 42", h)
	}
	if _, err := parseHeapProfile("heap profile: 0: 0 [0: 0] @ heap/1\n# Alloc = 1\n"); err == nil {
		t.Error("profile without HeapAlloc/NumGC accepted")
	}
	if _, err := parseHeapProfile("# HeapAlloc = lots\n# NumGC = 1\n"); err == nil {
		t.Error("non-numeric HeapAlloc accepted")
	}
}

func TestProcCPUTicks(t *testing.T) {
	stat := "1234 (cardnet serve) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 12 0 1000 2000000 3000"
	got, err := procCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 325 {
		t.Fatalf("utime+stime = %d, want 325", got)
	}
	if _, err := procCPUTicks("1234 (x) S 1"); err == nil {
		t.Error("truncated stat line accepted")
	}
}

func TestStealTicks(t *testing.T) {
	got, err := stealTicks("cpu  359395 0 29281 835910 671 0 9855 15092 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 15092 {
		t.Fatalf("steal = %d, want 15092", got)
	}
	if _, err := stealTicks("cpu  1 2 3 4\n"); err == nil {
		t.Error("cpu line without a steal field accepted")
	}
}

func TestLimits(t *testing.T) {
	l := limits{minDur: time.Second, maxDur: 5 * time.Second, minOps: 10}
	if l.done(2*time.Second, 5) {
		t.Error("done before minOps")
	}
	if l.done(500*time.Millisecond, 50) {
		t.Error("done before minDur")
	}
	if !l.done(2*time.Second, 50) {
		t.Error("not done after minDur and minOps")
	}
	if !l.done(6*time.Second, 0) {
		t.Error("not done at maxDur")
	}
	until := make(chan struct{})
	l.until = until
	if l.done(2*time.Second, 50) {
		t.Error("done while waiting on until")
	}
	close(until)
	if !l.done(2*time.Second, 50) {
		t.Error("not done once until closed")
	}
}

func TestAnswerBookFlagsChangedBits(t *testing.T) {
	b := newAnswerBook()
	if err := b.check(0, 1, 3, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.check(0, 1, 3, 2.5); err != nil {
		t.Errorf("identical repeat flagged: %v", err)
	}
	if err := b.check(0, 1, 3, math.Nextafter(2.5, 3)); err == nil {
		t.Error("one-ulp difference not flagged")
	}
	if err := b.check(1, 1, 3, 7); err != nil {
		t.Errorf("new model version flagged: %v", err)
	}
}
