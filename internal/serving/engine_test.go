package serving

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/infer"
)

// testModel returns a small untrained model; serving behaviour does not
// depend on trained weights, and distinct seeds give distinct estimates,
// which is what the swap tests need.
func testModel(seed int64) *core.Model {
	cfg := core.DefaultConfig(8)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 4
	cfg.PhiHidden = []int{16, 16}
	cfg.ZDim = 8
	cfg.Accel = true
	cfg.Seed = seed
	return core.New(cfg, 24)
}

// testRegistry publishes m at the default f64 tier.
func testRegistry(t testing.TB, m *core.Model) *Registry {
	t.Helper()
	return mustRegistry(t, m, PlanConfig{})
}

func mustRegistry(t testing.TB, m *core.Model, pc PlanConfig) *Registry {
	t.Helper()
	reg, err := NewRegistry(m, pc)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// planCurve is m's estimate curve for x through its f64 plan, the bits the
// default engine serves.
func planCurve(t testing.TB, m *core.Model, x []float64) []float64 {
	t.Helper()
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	return p.EstimateAllTaus(x)
}

func binVec(seed int64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(rng.Intn(2))
	}
	return x
}

func TestEngineMatchesDirectModel(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{MaxBatch: 4})
	defer e.Close()

	for i := 0; i < 10; i++ {
		x := binVec(int64(i), m.InDim)
		tau := i % (m.Cfg.TauMax + 1)
		got, err := e.Estimate(context.Background(), x, tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := planCurve(t, m, x)
		if got != want[tau] {
			t.Fatalf("query %d: engine %v != f64 plan %v", i, got, want[tau])
		}
		all, err := e.EstimateAll(context.Background(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if all[j] != want[j] {
				t.Fatalf("query %d τ=%d: engine %v != f64 plan %v", i, j, all[j], want[j])
			}
		}
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{})
	defer e.Close()

	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim-1), 0, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short x: err=%v", err)
	}
	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim), -1, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative tau: err=%v", err)
	}
	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim), m.Cfg.TauMax+1, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("huge tau: err=%v", err)
	}
	if _, err := e.EstimateAll(context.Background(), nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil x: err=%v", err)
	}
}

// TestEngineRejectsNonBinaryX: the engine enforces the {0,1}^d contract the
// packed key relies on, for both entry points.
func TestEngineRejectsNonBinaryX(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{})
	defer e.Close()
	for _, v := range []float64{0.5, 2, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := binVec(1, m.InDim)
		x[3] = v
		if _, err := e.Estimate(context.Background(), x, 0, nil); !errors.Is(err, ErrBadInput) {
			t.Errorf("Estimate with x[3]=%v: err=%v, want ErrBadInput", v, err)
		}
		if _, err := e.EstimateAll(context.Background(), x, nil); !errors.Is(err, ErrBadInput) {
			t.Errorf("EstimateAll with x[3]=%v: err=%v, want ErrBadInput", v, err)
		}
	}
}

// parkedEngine builds an engine over m whose batch workers block inside
// every forward pass: CurveCheck reports each computed curve on entered and
// then waits on gate. One send on gate frees one curve; release closes gate,
// and runs at cleanup before Close. A test parks the workers, queues
// requests behind them, then frees them, so what forms each batch never
// depends on timing. curves sizes entered: every curve the test computes.
func parkedEngine(t *testing.T, m *core.Model, cfg Config, curves int) (e *Engine, entered, gate chan struct{}, release func()) {
	entered = make(chan struct{}, curves)
	gate = make(chan struct{})
	cfg.CurveCheck = func([]float64) {
		entered <- struct{}{}
		<-gate
	}
	e = NewEngine(testRegistry(t, m), cfg)
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() {
		release()
		e.Close()
	})
	return e, entered, gate, release
}

// estimateAsync sends one point estimate of binVec(seed) and reports its
// error on errs.
func estimateAsync(e *Engine, seed int64, errs chan<- error) {
	go func() {
		_, err := e.Estimate(context.Background(), binVec(seed, e.reg.Current().Model.InDim), int(seed)%3, nil)
		errs <- err
	}()
}

// parkAndQueue parks every worker of e on a lone request, then queues n
// more requests behind them and waits until all n are in the queue.
func parkAndQueue(t *testing.T, e *Engine, entered chan struct{}, n int, errs chan<- error) {
	t.Helper()
	for w := 0; w < e.cfg.Workers; w++ {
		estimateAsync(e, int64(w), errs)
		<-entered
	}
	for i := 0; i < n; i++ {
		estimateAsync(e, int64(100+i), errs)
	}
	for len(e.q) < n {
		time.Sleep(100 * time.Microsecond)
	}
}

// drainErrs waits for n request results and fails on any error.
func drainErrs(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Size-triggered flush: with more requests queued than fit in one batch, a
// freed worker must take exactly MaxBatch of them and flush on size.
func TestBatcherFlushesOnSize(t *testing.T) {
	m := testModel(1)
	const batch = 4
	e, entered, gate, release := parkedEngine(t, m, Config{MaxBatch: batch, Workers: 1, CacheEntries: -1}, 2+batch)
	errs := make(chan error, 2+batch)
	parkAndQueue(t, e, entered, batch+1, errs)

	size := testObsCounter("serving.batch.flush_size")
	callsBefore, rowsBefore := batchCounters()
	gate <- struct{}{} // free the parked request; the worker forms the next batch
	<-entered
	if got := testObsCounter("serving.batch.flush_size") - size; got != 1 {
		t.Fatalf("%d size flushes, want 1", got)
	}
	if calls, rows := batchCounters(); calls-callsBefore != 1 || rows-rowsBefore != batch {
		t.Fatalf("next batch: %d forwards over %d rows, want 1 over %d", calls-callsBefore, rows-rowsBefore, batch)
	}
	release()
	drainErrs(t, errs, 2+batch)
}

// Concurrent traffic through one worker must coalesce into multi-request
// batches (the whole point of the subsystem).
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(1)
	const n = 8
	e, entered, _, release := parkedEngine(t, m, Config{MaxBatch: n, Workers: 1, CacheEntries: -1}, 1+n)
	errs := make(chan error, 1+n)
	parkAndQueue(t, e, entered, n, errs)

	callsBefore, rowsBefore := batchCounters()
	release()
	drainErrs(t, errs, 1+n)
	calls, rows := batchCounters()
	if gotRows := rows - rowsBefore; gotRows != n {
		t.Fatalf("batched rows: %d, want %d", gotRows, n)
	}
	if gotCalls := calls - callsBefore; gotCalls != 1 {
		t.Fatalf("no coalescing: %d forward passes for %d requests", gotCalls, n)
	}
}

// Zero-wait batching under the default Config: a lone request flushes at
// once as a deadline flush (the queue ran empty), and requests that queue
// while every worker is busy all ride the next batch.
func TestZeroWaitBatchesWhatQueued(t *testing.T) {
	m := testModel(1)
	const n = 8
	workers := runtime.GOMAXPROCS(0)
	e, entered, gate, release := parkedEngine(t, m, Config{CacheEntries: -1}, workers+n)
	errs := make(chan error, workers+n)

	// Each lone request that parks a worker must flush as a deadline.
	deadline, size := testObsCounter("serving.batch.flush_deadline"), testObsCounter("serving.batch.flush_size")
	parkAndQueue(t, e, entered, n, errs)
	if got := testObsCounter("serving.batch.flush_deadline") - deadline; got != uint64(workers) {
		t.Fatalf("%d lone requests: %d deadline flushes, want %d", workers, got, workers)
	}
	if testObsCounter("serving.batch.flush_size") != size {
		t.Fatal("a lone request flushed on size")
	}

	callsBefore, rowsBefore := batchCounters()
	gate <- struct{}{} // free one worker; the rest stay parked
	<-entered          // it has run its next forward pass
	calls, rows := batchCounters()
	if calls-callsBefore != 1 || rows-rowsBefore != n {
		t.Fatalf("next batch: %d forwards over %d rows, want 1 over %d", calls-callsBefore, rows-rowsBefore, n)
	}
	release()
	drainErrs(t, errs, workers+n)
}

// batchCounters reads the forwards run and rows served so far from the
// serving.batch.size histogram (one observation of the row count per batch).
func batchCounters() (calls, rows uint64) {
	return mBatchSize.Count(), uint64(mBatchSize.Sum())
}

// Admission control: a full queue rejects instead of blocking. Built without
// workers so the rejection is deterministic.
func TestSubmitOverloadedWhenQueueFull(t *testing.T) {
	m := testModel(1)
	e := &Engine{cfg: Config{QueueDepth: 1}.withDefaults(), reg: testRegistry(t, m), q: make(chan *request, 1)}
	r := func() *request { return &request{x: binVec(1, m.InDim), done: make(chan result, 1)} }
	if err := e.submit(r()); err != nil {
		t.Fatal(err)
	}
	if err := e.submit(r()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submit: err=%v, want ErrOverloaded", err)
	}
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 0, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Estimate on full queue: err=%v, want ErrOverloaded", err)
	}
}

// Saturation smoke test with real workers: every request either succeeds or
// is rejected with ErrOverloaded; nothing hangs or fails another way.
func TestEngineSaturationDegradesGracefully(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{
		MaxBatch: 2, QueueDepth: 2, Workers: 1, CacheEntries: -1,
	})
	defer e.Close()

	var ok, overloaded, other atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := e.Estimate(context.Background(), binVec(int64(g*100+i), m.InDim), i%(m.Cfg.TauMax+1), nil)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				default:
					other.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected failures under saturation: %d", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	t.Logf("saturation: ok=%d overloaded=%d", ok.Load(), overloaded.Load())
}

// Per-request deadlines: an already-expired context is reported as such and
// never occupies forward-pass capacity.
func TestEngineHonorsContextDeadline(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{CacheEntries: -1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Estimate(ctx, binVec(1, m.InDim), 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err=%v", err)
	}
}

func TestEngineClosedRejects(t *testing.T) {
	m := testModel(1)
	e := NewEngine(testRegistry(t, m), Config{})
	e.Close()
	e.Close() // idempotent
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: err=%v", err)
	}
}

// Hot swap under fire: hammer the engine from many goroutines while the
// registry swaps retrained (re-seeded) models; zero requests may fail, and
// answers must always come from one of the installed models.
func TestSwapUnderLoadZeroFailures(t *testing.T) {
	models := []*core.Model{testModel(1), testModel(2), testModel(3)}
	reg := testRegistry(t, models[0])
	e := NewEngine(reg, Config{MaxBatch: 8, QueueDepth: 4096})
	defer e.Close()

	dim := models[0].InDim
	const nx = 16
	xs := make([][]float64, nx)
	want := make([]map[float64]bool, nx) // valid answers per query: any installed model
	for i := range xs {
		xs[i] = binVec(int64(i), dim)
		want[i] = map[float64]bool{}
		for _, m := range models {
			want[i][planCurve(t, m, xs[i])[i%(models[0].Cfg.TauMax+1)]] = true
		}
	}

	stop := make(chan struct{})
	var failures, wrong, served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (g + i) % nx
				v, err := e.Estimate(context.Background(), xs[q], q%(models[0].Cfg.TauMax+1), nil)
				if errors.Is(err, ErrOverloaded) {
					continue // backpressure is not a failure
				}
				if err != nil {
					failures.Add(1)
					return
				}
				served.Add(1)
				if !want[q][v] {
					wrong.Add(1)
					return
				}
			}
		}(g)
	}

	for swap := 1; swap <= 6; swap++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := reg.Swap(models[swap%len(models)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed during swaps", failures.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d answers matched no installed model", wrong.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served during the swap storm")
	}
	if v := reg.Current().Version; v != 7 {
		t.Fatalf("registry version %d, want 7", v)
	}
}

// A request that misses the cache waits for its curve at most
// requestTimeout, whatever its own context allows: queued behind a parked
// worker, it fails with the deadline, and the worker that reaches it later
// skips it instead of running a forward pass for nobody.
func TestQueuedRequestFailsAtTimeout(t *testing.T) {
	old := requestTimeout
	requestTimeout = 50 * time.Millisecond
	t.Cleanup(func() { requestTimeout = old })
	m := testModel(1)
	e, entered, _, release := parkedEngine(t, m, Config{Workers: 1, CacheEntries: -1}, 2)
	errs := make(chan error, 2)
	start := time.Now()
	parkAndQueue(t, e, entered, 1, errs) // both under context.Background()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d: err=%v, want the deadline", i, err)
		}
	}
	if waited := time.Since(start); waited < requestTimeout {
		t.Fatalf("failed after %v, before the %v bound", waited, requestTimeout)
	}
	callsBefore, _ := batchCounters()
	release()
	e.Close() // drains the queue: the worker reaches the expired request
	if calls, _ := batchCounters(); calls != callsBefore {
		t.Fatalf("an expired request ran %d forward passes", calls-callsBefore)
	}
}
