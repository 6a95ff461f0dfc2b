package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter=%d, want %d", got, workers*per)
	}
	// Same name returns the same counter.
	if r.Counter("hits") != c {
		t.Fatal("Counter not idempotent by name")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth")
	if g.Value() != 0 {
		t.Fatalf("zero gauge=%v", g.Value())
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("gauge=%v", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// Boundary values land in the bucket whose upper bound equals them.
	for _, v := range []float64{0.5, 1.0} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(4.0)
	h.Observe(100) // overflow

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count=%d", s.Count)
	}
	wantCum := []uint64{2, 3, 4} // cumulative ≤1, ≤2, ≤4
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket le=%v count=%d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	if math.Abs(s.Sum-107.0) > 1e-9 {
		t.Fatalf("sum=%v", s.Sum)
	}
	if math.Abs(s.Mean-107.0/5) > 1e-9 {
		t.Fatalf("mean=%v", s.Mean)
	}
}

// TestHistSnapshotBucketCounts de-cumulates a live snapshot (overflow
// last) and refuses decoded ones whose cumulative counts fall or pass the
// total.
func TestHistSnapshotBucketCounts(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	if got := fmt.Sprint(h.Snapshot().BucketCounts()); got != "[2 1 1 1]" {
		t.Fatalf("bucket counts %s, want [2 1 1 1]", got)
	}
	if got := fmt.Sprint(NewHistogram(nil).Snapshot().BucketCounts()); got != "[0]" {
		t.Fatalf("empty histogram bucket counts %s, want [0]", got)
	}
	falling := HistSnapshot{Count: 5, Buckets: []Bucket{{1, 3}, {2, 2}}}
	short := HistSnapshot{Count: 2, Buckets: []Bucket{{1, 3}}}
	if falling.BucketCounts() != nil || short.BucketCounts() != nil {
		t.Fatal("inconsistent cumulative counts de-cumulated")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // 10,20,…,100
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	// Uniform fill: p50 ≈ 50, p95 ≈ 95, p99 ≈ 99 (bucket-interpolated).
	if math.Abs(s.P50-50) > 10 {
		t.Fatalf("p50=%v", s.P50)
	}
	if math.Abs(s.P95-95) > 10 {
		t.Fatalf("p95=%v", s.P95)
	}
	if math.Abs(s.P99-99) > 10 {
		t.Fatalf("p99=%v", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not ordered: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramQuantileOverflowAndEmpty(t *testing.T) {
	h := NewHistogram([]float64{1})
	if s := h.Snapshot(); s.P99 != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	h.Observe(50) // everything in overflow → quantile clamps to max bound
	if s := h.Snapshot(); s.P50 != 1 {
		t.Fatalf("overflow p50=%v", s.P50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(TimeBuckets())
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count=%d", h.Count())
	}
	// Exact expected sum: Σ i·1e-6 for i in [0, workers·per).
	n := float64(workers * per)
	want := 1e-6 * n * (n - 1) / 2
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("sum=%v want %v", h.Sum(), want)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 2, 4)
	for i, want := range []float64{0, 2, 4, 6} {
		if lin[i] != want {
			t.Fatalf("linear=%v", lin)
		}
	}
	exp := ExpBuckets(1, 10, 3)
	for i, want := range []float64{1, 10, 100} {
		if exp[i] != want {
			t.Fatalf("exp=%v", exp)
		}
	}
	tb := TimeBuckets()
	if tb[0] != 1e-6 || tb[len(tb)-1] < 5 {
		t.Fatalf("time buckets out of range: first=%v last=%v", tb[0], tb[len(tb)-1])
	}
}

func TestTimer(t *testing.T) {
	h := NewRegistry().Histogram("work.seconds", TimeBuckets())
	tm := StartTimer(h)
	time.Sleep(time.Millisecond)
	if d := tm.Stop(); d < time.Millisecond {
		t.Fatalf("timer too short: %v", d)
	}
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("timer histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("load").Set(0.5)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]uint64       `json:"counters"`
		Gauges     map[string]float64      `json:"gauges"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["reqs"] != 3 || snap.Gauges["load"] != 0.5 {
		t.Fatalf("snapshot values: %+v", snap)
	}
	hs := snap.Histograms["lat"]
	if hs.Count != 1 || len(hs.Buckets) != 2 || hs.Buckets[1].Count != 1 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "lat" {
		t.Fatalf("names=%v", names)
	}
}

// TestSnapshotJSONNonFinite is the regression for a histogram sum that
// overflowed to +Inf: encoding/json refused the value, so WriteJSON wrote
// nothing and /metrics answered 200 with an empty body from then on. The
// snapshot now carries non-finite values as their Prometheus spelling.
func TestSnapshotJSONNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("big", []float64{1})
	h.Observe(math.MaxFloat64)
	h.Observe(math.MaxFloat64) // sum overflows to +Inf
	r.Gauge("ratio").Set(math.NaN())
	r.Counter("reqs").Inc()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v (wrote %d bytes)", err, buf.Len())
	}
	var snap struct {
		Counters   map[string]uint64         `json:"counters"`
		Gauges     map[string]any            `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, buf.String())
	}
	big := snap.Histograms["big"]
	if big["sum"] != "+Inf" || big["mean"] != "+Inf" || big["count"] != 2.0 {
		t.Fatalf("overflowed histogram: %v", big)
	}
	if snap.Gauges["ratio"] != "NaN" || snap.Counters["reqs"] != 1 {
		t.Fatalf("gauges %v counters %v", snap.Gauges, snap.Counters)
	}
	// A typed reader gets the non-finite values back.
	var typed struct {
		Histograms map[string]HistSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &typed); err != nil {
		t.Fatal(err)
	}
	if hs := typed.Histograms["big"]; !math.IsInf(hs.Sum, 1) || hs.Count != 2 || len(hs.Buckets) != 1 {
		t.Fatalf("typed decode: %+v", hs)
	}
}

func TestSinkJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	if err := s.Emit("epoch", map[string]any{"epoch": 1, "loss": 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit("epoch", map[string]any{"epoch": 2, "loss": 0.125}); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if rec["event"] != "epoch" {
			t.Fatalf("event=%v", rec["event"])
		}
		ts, _ := rec["ts"].(string)
		if !strings.HasPrefix(ts, "2026-08-06T12:00:00") {
			t.Fatalf("ts=%q", ts)
		}
		if rec["epoch"].(float64) != float64(lines) {
			t.Fatalf("epoch=%v on line %d", rec["epoch"], lines)
		}
	}
	if lines != 2 {
		t.Fatalf("lines=%d", lines)
	}
}

func TestSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Emit("e", map[string]any{"i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved write on line %d: %s", lines, sc.Text())
		}
	}
	if lines != 400 {
		t.Fatalf("lines=%d", lines)
	}
}

func TestFileSink(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EmitSnapshot("snap", NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // second close is a no-op
		t.Fatal(err)
	}
}
