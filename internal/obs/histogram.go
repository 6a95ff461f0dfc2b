package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds, with an implicit +Inf overflow bucket. Sum and count are
// tracked exactly; quantiles are estimated by linear interpolation inside
// the bucket containing the target rank, so their resolution is the bucket
// width.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum       atomic.Uint64   // float64 bits, CAS-accumulated
	n         atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1, last traced value per bucket
}

// Exemplar links one concrete observation to the trace that produced it: the
// last traced value to land in a histogram bucket keeps its trace ID, so a
// scraped latency spike resolves to a JSONL trace `cardnet tracescan` can
// explain. Captured only by ObserveExemplar — plain Observe pays nothing.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// NewHistogram builds a histogram with the given upper bounds (sorted copies
// are taken; an empty slice yields a single +Inf bucket, i.e. count/sum/mean
// only).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and stamps its bucket's exemplar with
// the trace ID that produced it — one atomic pointer swap beyond Observe, so
// exemplar-linked histograms stay hot-path safe. An empty traceID degrades
// to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// ObserveExemplarDuration records a duration in seconds with an exemplar.
func (h *Histogram) ObserveExemplarDuration(d time.Duration, traceID string) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// BucketExemplar returns bucket i's exemplar (i indexes the snapshot's
// bucket order, with len(Buckets) addressing the +Inf overflow bucket); ok
// is false when nothing traced has landed there.
func (h *Histogram) BucketExemplar(i int) (Exemplar, bool) {
	if i < 0 || i >= len(h.exemplars) {
		return Exemplar{}, false
	}
	if e := h.exemplars[i].Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// ExemplarAbove returns the exemplar of the slowest populated bucket whose
// observations exceed bound — the concrete trace behind an SLO breach. The
// scan runs top-down so the worst traced offender wins.
func (h *Histogram) ExemplarAbove(bound float64) (Exemplar, bool) {
	for i := len(h.exemplars) - 1; i >= 0; i-- {
		// Bucket i holds values in (bounds[i-1], bounds[i]]; it can exceed
		// bound only when its upper edge does.
		if i < len(h.bounds) && h.bounds[i] <= bound {
			break
		}
		if e := h.exemplars[i].Load(); e != nil && e.Value > bound {
			return *e, true
		}
	}
	return Exemplar{}, false
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return bitsFloat(h.sum.Load()) }

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations ≤ UpperBound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// histJSON is HistSnapshot's wire form: its float fields as jsonFloat, so
// a sum that overflowed to +Inf still yields a well-formed document.
type histJSON struct {
	Count   uint64    `json:"count"`
	Sum     jsonFloat `json:"sum"`
	Mean    jsonFloat `json:"mean"`
	P50     jsonFloat `json:"p50"`
	P95     jsonFloat `json:"p95"`
	P99     jsonFloat `json:"p99"`
	Buckets []Bucket  `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler through histJSON.
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{s.Count, jsonFloat(s.Sum), jsonFloat(s.Mean),
		jsonFloat(s.P50), jsonFloat(s.P95), jsonFloat(s.P99), s.Buckets})
}

// UnmarshalJSON implements json.Unmarshaler, reading back what MarshalJSON
// writes, non-finite values included.
func (s *HistSnapshot) UnmarshalJSON(b []byte) error {
	var w histJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = HistSnapshot{w.Count, float64(w.Sum), float64(w.Mean),
		float64(w.P50), float64(w.P95), float64(w.P99), w.Buckets}
	return nil
}

// BucketCounts de-cumulates the snapshot into per-bucket counts, one per
// finite bound with the overflow bucket last: the shape slo.BucketQuantile
// reads. It returns nil when the cumulative counts fall or pass Count, which
// no Histogram snapshot does but a decoded one can.
func (s HistSnapshot) BucketCounts() []float64 {
	out := make([]float64, len(s.Buckets)+1)
	var prev uint64
	for i, b := range s.Buckets {
		if b.Count < prev {
			return nil
		}
		out[i] = float64(b.Count - prev)
		prev = b.Count
	}
	if s.Count < prev {
		return nil
	}
	out[len(s.Buckets)] = float64(s.Count - prev)
	return out
}

// Snapshot summarizes the histogram. Concurrent Observes may land between
// the per-bucket loads; totals are recomputed from the buckets so the
// snapshot is internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	raw := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		raw[i] = h.counts[i].Load()
		total += raw[i]
	}
	s := HistSnapshot{Count: total, Sum: h.Sum()}
	if total > 0 {
		s.Mean = s.Sum / float64(total)
	}
	s.Buckets = make([]Bucket, len(h.bounds))
	var cum uint64
	for i, b := range h.bounds {
		cum += raw[i]
		s.Buckets[i] = Bucket{UpperBound: b, Count: cum}
	}
	s.P50 = h.quantile(raw, total, 0.50)
	s.P95 = h.quantile(raw, total, 0.95)
	s.P99 = h.quantile(raw, total, 0.99)
	return s
}

// quantile interpolates quantile q from per-bucket counts. Values in the
// overflow bucket are attributed to the largest finite bound (a lower
// bound on the true quantile).
func (h *Histogram) quantile(raw []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range raw {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i >= len(h.bounds) { // overflow bucket
				return h.maxBound()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += float64(c)
	}
	return h.maxBound()
}

func (h *Histogram) maxBound() float64 {
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// LinearBuckets returns n upper bounds start, start+width, …
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets are the default latency bounds in seconds: 1µs … ~8.6s in
// ×2 steps, matching the spread between a single fused-encoder estimate and
// a full training epoch.
func TimeBuckets() []float64 { return ExpBuckets(1e-6, 2, 24) }

// Timer measures one interval into a histogram (in seconds).
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing into h.
func StartTimer(h *Histogram) Timer { return Timer{h: h, start: time.Now()} }

// Stop records the elapsed time and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	t.h.ObserveDuration(d)
	return d
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
