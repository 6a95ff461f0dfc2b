package serving

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"cardnet/internal/obs"
)

// traceStages reads a trace's completed stages from its JSONL fields.
func traceStages(tr *obs.Trace) []obs.TraceStage {
	return tr.Fields()["stages"].([]obs.TraceStage)
}

// A traced miss must walk every engine stage in pipeline order, tile the
// trace's total exactly, and carry the batch annotations.
func TestEstimateTracedStages(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 4})
	defer e.Close()

	tr := obs.NewTrace()
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 2, tr); err != nil {
		t.Fatal(err)
	}
	stages := traceStages(tr)
	wantOrder := []string{StageCache.Name, StageQueueWait.Name, StageBatchForm.Name, StageForward.Name}
	if len(stages) != len(wantOrder) {
		t.Fatalf("stages %v, want %v", stages, wantOrder)
	}
	var sum float64
	for i, s := range stages {
		if s.Name != wantOrder[i] {
			t.Fatalf("stage %d = %q, want %q (all: %v)", i, s.Name, wantOrder[i], stages)
		}
		if s.Us < 0 {
			t.Fatalf("negative stage duration: %+v", s)
		}
		sum += s.Us
	}
	// Marks tile the interval by construction: stage microseconds sum to the
	// traced total exactly (modulo float rounding).
	if total := float64(tr.Total().Nanoseconds()) / 1e3; math.Abs(sum-total) > 1e-6*total+1e-9 {
		t.Fatalf("stage sum %.3fus != total %.3fus", sum, total)
	}

	f := tr.Fields()
	if f["cache_hit"] != false {
		t.Fatalf("cache_hit = %v, want false", f["cache_hit"])
	}
	if bs, ok := f["batch_size"].(int); !ok || bs < 1 {
		t.Fatalf("batch_size = %v", f["batch_size"])
	}
	switch f["flush"] {
	case FlushSize, FlushDeadline, FlushShutdown:
	default:
		t.Fatalf("flush = %v", f["flush"])
	}
}

// A traced cache hit short-circuits after the cache stage and is annotated
// as a hit.
func TestEstimateTracedCacheHit(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 1})
	defer e.Close()

	x := binVec(7, m.InDim)
	if _, err := e.Estimate(context.Background(), x, 3, nil); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := e.Estimate(context.Background(), x, 3, tr); err != nil {
		t.Fatal(err)
	}
	stages := traceStages(tr)
	if len(stages) != 1 || stages[0].Name != StageCache.Name {
		t.Fatalf("cache-hit stages = %v, want just %q", stages, StageCache.Name)
	}
	if tr.Fields()["cache_hit"] != true {
		t.Fatal("cache hit not annotated")
	}
}

// Traced requests feed the per-stage histograms; the stage sums tile the
// interval, so they add up to the engine-observed wall time per request.
func TestTracedRequestsFeedStageHistograms(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 2, CacheEntries: -1})
	defer e.Close()

	stages := []*obs.Stage{StageQueueWait, StageBatchForm, StageForward}
	before := make(map[string]uint64, len(stages))
	for _, s := range stages {
		before[s.Name] = s.Hist.Count()
	}

	const reqs = 6
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := obs.NewTrace()
			if _, err := e.EstimateAll(context.Background(), binVec(int64(i), m.InDim), tr); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for _, s := range stages {
		if got := s.Hist.Count() - before[s.Name]; got != reqs {
			t.Fatalf("%s observed %d stage durations, want %d", s.Name, got, reqs)
		}
	}
}

// Untraced requests must not touch the stage histograms (tracing is pay-as-
// you-go) and still succeed.
func TestUntracedRequestsSkipStageHistograms(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 1, CacheEntries: -1})
	defer e.Close()

	h := StageForward.Hist
	before := h.Count()
	for i := 0; i < 4; i++ {
		if _, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Count(); got != before {
		t.Fatalf("forward histogram grew by %d for untraced traffic", got-before)
	}
}

// Every flush is attributed to exactly one reason counter.
func TestFlushReasonCounters(t *testing.T) {
	m := testModel(1)

	sizeBefore := testObsCounter("serving.batch.flush_size")
	deadlineBefore := testObsCounter("serving.batch.flush_deadline")

	// MaxBatch 1: every request is its own size-flushed batch.
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 1, CacheEntries: -1})
	for i := 0; i < 3; i++ {
		if _, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if got := testObsCounter("serving.batch.flush_size") - sizeBefore; got != 3 {
		t.Fatalf("size flushes = %d, want 3", got)
	}

	// A lone request in a huge batch flushes when the queue runs empty,
	// counted under the deadline reason.
	e = NewEngine(testRegistry(t, m), Config{MaxBatch: 1024, Workers: 1, CacheEntries: -1})
	if _, err := e.Estimate(context.Background(), binVec(9, m.InDim), 0, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if got := testObsCounter("serving.batch.flush_deadline") - deadlineBefore; got == 0 {
		t.Fatal("deadline flush not counted")
	}
}

// Close drains queued requests through shutdown flushes, and they are
// counted as such.
func TestShutdownFlushCounted(t *testing.T) {
	m := testModel(1)
	before := testObsCounter("serving.batch.flush_shutdown")

	// The one worker is parked while four requests queue behind it; Close
	// then closes the queue, so the freed worker's next batch takes all four
	// and meets the closed queue before MaxBatch: a shutdown flush.
	e, entered, _, release := parkedEngine(t, m, Config{MaxBatch: 64, Workers: 1, QueueDepth: 16}, 5)
	errs := make(chan error, 5)
	parkAndQueue(t, e, entered, 4, errs)
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for closing := true; closing; {
		time.Sleep(100 * time.Microsecond)
		e.mu.RLock()
		closing = !e.closed
		e.mu.RUnlock()
	}
	release()
	<-closed
	drainErrs(t, errs, 5)

	if got := testObsCounter("serving.batch.flush_shutdown") - before; got != 1 {
		t.Fatalf("%d shutdown flushes, want 1", got)
	}
}

// CurveCheck sees every freshly computed τ-sweep row (and the untrained
// model's curves are monotone by construction, Lemma 2).
func TestCurveCheckInvoked(t *testing.T) {
	m := testModel(1)
	var mu sync.Mutex
	var rows int
	var badLen bool
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 4, CacheEntries: -1,
		CurveCheck: func(curve []float64) {
			mu.Lock()
			rows++
			if len(curve) != m.Cfg.TauMax+1 {
				badLen = true
			}
			mu.Unlock()
		}})
	defer e.Close()

	const reqs = 5
	for i := 0; i < reqs; i++ {
		if _, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), i%(m.Cfg.TauMax+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if rows != reqs {
		t.Fatalf("CurveCheck saw %d rows, want %d", rows, reqs)
	}
	if badLen {
		t.Fatalf("CurveCheck saw a curve without TauMax+1=%d points", m.Cfg.TauMax+1)
	}
}

// The cache-size gauge tracks Puts.
func TestCacheSizeGauge(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 1, CacheEntries: 64})
	defer e.Close()

	for i := 0; i < 5; i++ {
		if _, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.Default.Gauge("serving.cache.size").Value(); got < 1 {
		t.Fatalf("cache.size gauge = %v after 5 misses", got)
	}
}
