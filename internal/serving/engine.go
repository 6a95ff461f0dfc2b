package serving

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/tensor"
)

// Config tunes the engine. Zero values take the documented defaults.
type Config struct {
	// MaxBatch is the most requests coalesced into one forward pass
	// (default 32). 1 disables batching.
	MaxBatch int
	// MaxWait bounds how long a formed batch waits for more requests before
	// flushing. The default 0 (like any value ≤ 0) waits for nothing: a
	// worker takes what is already queued and flushes at once, so requests
	// that arrive during a forward pass form the next batch. A positive
	// MaxWait trades that latency for larger batches.
	MaxWait time.Duration
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 256).
	QueueDepth int
	// Workers is the number of batch-running goroutines (default
	// GOMAXPROCS). Each worker forms and runs its own batches; the model
	// forward pass is goroutine-safe. With no flush deadline a single worker
	// would serialise lone requests, while one per CPU runs them in
	// parallel; idle workers only block on the queue.
	Workers int
	// CacheEntries is the estimate-cache capacity in query curves (TauMax+1
	// float64 each); 0 uses the default 4096, negative disables the cache.
	CacheEntries int
	// CacheShards is the cache shard count, rounded up to a power of two
	// (default 8).
	CacheShards int
	// CurveCheck, when set, receives every freshly computed τ-sweep estimate
	// curve (cache hits are not re-checked). The drift monitor wires its
	// monotonicity validator here. The callback must not retain the slice and
	// must be cheap: it runs on the batch worker's hot path.
	CurveCheck func(curve []float64)
	// Precision selects the inference tier: "f64" (default) is the exact
	// legacy forward; "f32" and "int8" serve through a compiled fused plan —
	// but only after the accuracy-delta gate passes. A failed gate falls back
	// to f64 (see Engine.Precision for the verdict).
	Precision infer.Precision
	// GateMaxDelta bounds the q-error p99 inflation a compiled tier may show
	// versus f64 before it is refused (0 = infer.DefaultGateMaxDelta).
	GateMaxDelta float64
	// GateSweep is the number of validation queries the gate evaluates
	// (0 = infer.DefaultGateSweep).
	GateSweep int
	// GateSeed seeds the gate's pseudo-random validation sweep.
	GateSeed int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
	}
	if c.Precision == "" {
		c.Precision = infer.PrecisionF64
	}
	return c
}

// request is one queued query; done is buffered so a worker can always
// complete a request whose caller has already given up on its deadline. The
// worker always answers with the query's whole estimate curve.
type request struct {
	ctx  context.Context
	x    []float64
	key  curveKey
	done chan result

	tr  *obs.Trace // optional request trace (nil when untraced)
	enq time.Time  // when submit enqueued the request (for queue-wait)
}

type result struct {
	curve []float64
	err   error
}

// Engine is the batched inference front-end over a model Registry. Create
// with NewEngine, serve with Estimate/EstimateAll, stop with Close (which
// drains queued requests before returning).
type Engine struct {
	cfg    Config
	reg    *Registry
	cache  *curveCache
	plan   atomic.Pointer[planState] // compiled precision plan (nil plan = f64)
	shadow atomic.Pointer[ShadowTap] // optional dual-run tap (nil = off)

	q      chan *request
	mu     sync.RWMutex // guards closed against concurrent submits
	closed bool
	wg     sync.WaitGroup
}

// ShadowTap receives every freshly computed batch after its results have been
// delivered: xs holds the encoded inputs (one row per live request) and live
// the corresponding τ-sweep estimate curves served to clients. The autopilot
// wires its shadow evaluator here to dual-run a sampled fraction of traffic
// through a candidate model without affecting responses.
//
// The tap runs on the batch worker's hot path: it must return quickly (copy
// the rows it wants to keep and hand off to its own goroutine) and must not
// retain or mutate either matrix. Clients and the cache hold their own copies
// of each curve, so the tap never aliases delivered data.
type ShadowTap func(xs, live *tensor.Matrix)

// NewEngine starts cfg.Workers batch workers over the registry's model and
// hooks cache invalidation to registry swaps.
func NewEngine(reg *Registry, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		reg:   reg,
		cache: newCurveCache(cfg.CacheEntries, cfg.CacheShards),
		q:     make(chan *request, cfg.QueueDepth),
	}
	if e.cache != nil {
		reg.OnSwap(e.cache.Invalidate)
	}
	// Lower the initial model to the configured precision tier, and re-lower
	// on every hot swap. Relowering runs inside Swap after the new model is
	// installed; until it publishes, batches see a version mismatch and serve
	// through the exact f64 path.
	e.relower()
	reg.OnSwap(e.relower)
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Registry exposes the engine's model registry (for the reload endpoint).
func (e *Engine) Registry() *Registry { return e.reg }

// SetShadowTap installs (or, with nil, removes) the batch shadow tap. Safe to
// call concurrently with serving; the next batch sees the new tap.
func (e *Engine) SetShadowTap(tap ShadowTap) {
	if tap == nil {
		e.shadow.Store(nil)
		return
	}
	e.shadow.Store(&tap)
}

// CacheLen reports the number of cached query curves (0 when disabled).
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

// Estimate returns the cardinality estimate for an encoded query x at
// transformed threshold τ, batching the forward pass with concurrent
// requests. It fails fast with ErrOverloaded when the queue is full, ErrClosed
// after Close, ErrBadInput on shape/τ violations or a component of x other
// than 0 or 1, and the context error when ctx expires first.
func (e *Engine) Estimate(ctx context.Context, x []float64, tau int) (float64, error) {
	return e.EstimateTraced(ctx, x, tau, nil)
}

// EstimateTraced is Estimate carrying an optional request trace: the engine
// marks the cache, queue.wait, batch.form, and forward stages on it and
// annotates batch size and flush reason. A nil trace costs nothing.
func (e *Engine) EstimateTraced(ctx context.Context, x []float64, tau int, tr *obs.Trace) (float64, error) {
	if m, _ := e.reg.Current(); tau < 0 || tau > m.Cfg.TauMax {
		return 0, fmt.Errorf("%w: tau %d outside [0, %d]", ErrBadInput, tau, m.Cfg.TauMax)
	}
	curve, err := e.curve(ctx, x, tr)
	if err != nil {
		return 0, err
	}
	return curve[tau], nil
}

// EstimateAll returns the full estimate curve (every τ in [0, TauMax]) for
// one encoded query, with the same batching, caching, and failure modes as
// Estimate. Callers must not mutate the returned slice.
func (e *Engine) EstimateAll(ctx context.Context, x []float64) ([]float64, error) {
	return e.EstimateAllTraced(ctx, x, nil)
}

// EstimateAllTraced is EstimateAll with an optional request trace.
func (e *Engine) EstimateAllTraced(ctx context.Context, x []float64, tr *obs.Trace) ([]float64, error) {
	return e.curve(ctx, x, tr)
}

// curve is the lookup-and-dispatch path both entry points share: validate
// and pack x, answer from the cached curve, or queue x for a batched forward
// pass whose curve the worker caches.
func (e *Engine) curve(ctx context.Context, x []float64, tr *obs.Trace) ([]float64, error) {
	if m, _ := e.reg.Current(); len(x) != m.InDim {
		return nil, fmt.Errorf("%w: x has %d features, model expects %d", ErrBadInput, len(x), m.InDim)
	}
	key, err := packX(x)
	if err != nil {
		return nil, err
	}
	mRequests.Inc()
	if e.cache != nil {
		curve, ok := e.cache.Get(key)
		markCache(tr, ok)
		if ok {
			return curve, nil
		}
	}
	return e.dispatch(ctx, &request{ctx: ctx, x: x, key: key, done: make(chan result, 1), tr: tr})
}

// markCache closes the cache-lookup stage on a traced request.
func markCache(tr *obs.Trace, hit bool) {
	if tr == nil {
		return
	}
	mStageCache.ObserveDuration(tr.Mark(StageCache))
	tr.Annotate("cache_hit", hit)
}

// dispatch submits r and waits for its curve or the context deadline.
func (e *Engine) dispatch(ctx context.Context, r *request) ([]float64, error) {
	if err := e.submit(r); err != nil {
		return nil, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case res := <-r.done:
		return res.curve, res.err
	case <-done:
		mExpired.Inc()
		return nil, ctx.Err()
	}
}

// submit enqueues without blocking: admission control is the queue bound.
func (e *Engine) submit(r *request) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	r.enq = time.Now()
	select {
	case e.q <- r:
		mQueueDepth.Set(float64(len(e.q)))
		return nil
	default:
		mOverloaded.Inc()
		return ErrOverloaded
	}
}

// Close stops admission, drains every queued request through the workers,
// and waits for them to finish — the graceful-shutdown half of the server's
// SIGTERM handling.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.q)
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for r := range e.q {
		batchStart := time.Now()
		batch, reason := e.collect(r)
		e.run(batch, batchStart, reason)
	}
}

// collect forms a batch starting from first: it keeps pulling queued
// requests until the batch is full (size flush) or MaxWait has passed since
// the batch started forming (deadline flush, which bounds the latency a
// lone request pays for batching). With MaxWait 0 the deadline has already
// passed, so the batch takes only what is queued and flushes as soon as the
// queue is empty, without a timer. The returned reason names which condition
// flushed the batch; every flush is counted under its reason.
func (e *Engine) collect(first *request) ([]*request, string) {
	batch := []*request{first}
	if e.cfg.MaxBatch <= 1 {
		mFlushSize.Inc()
		return batch, FlushSize
	}
	var deadline <-chan time.Time
	if e.cfg.MaxWait > 0 {
		timer := time.NewTimer(e.cfg.MaxWait)
		defer timer.Stop()
		deadline = timer.C
	}
	for len(batch) < e.cfg.MaxBatch {
		var r *request
		var ok bool
		if deadline == nil {
			select {
			case r, ok = <-e.q:
			default:
				mFlushDeadline.Inc()
				return batch, FlushDeadline
			}
		} else {
			select {
			case r, ok = <-e.q:
			case <-deadline:
				mFlushDeadline.Inc()
				return batch, FlushDeadline
			}
		}
		if !ok { // Close drained the queue: flush what we have
			mFlushShutdown.Inc()
			return batch, FlushShutdown
		}
		batch = append(batch, r)
	}
	mFlushSize.Inc()
	return batch, FlushSize
}

// run executes one batch: expired requests are failed individually, the
// rest share a single stacked forward pass on the current model, and each
// row is copied out once as that query's curve, delivered and cached (so a
// cached curve never pins the batch matrix). The model pointer and cache
// generation are snapshotted together so a concurrent swap can neither fail
// the batch nor let its results poison the post-swap cache.
//
// For traced requests the batching interval is split per request at
// batchStart: time from enqueue to batchStart is queue-wait (clamped into
// [enq, flush] — a request that joined mid-formation waited zero), and the
// remainder until the flush instant is batch-formation. Both stages plus the
// shared forward pass tile each request's wall time exactly, so the
// per-stage histograms sum to the end-to-end latency.
func (e *Engine) run(batch []*request, batchStart time.Time, reason string) {
	flush := time.Now()
	mQueueDepth.Set(float64(len(e.q)))
	var gen uint64
	if e.cache != nil {
		gen = e.cache.Gen() // before the model load: stale Puts must lose
	}
	m, ver := e.reg.Current()

	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx != nil {
			select {
			case <-r.ctx.Done():
				mExpired.Inc()
				r.done <- result{err: r.ctx.Err()}
				continue
			default:
			}
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	mBatchSize.Observe(float64(len(live)))
	for _, r := range live {
		if r.tr == nil {
			continue
		}
		split := batchStart
		if split.Before(r.enq) {
			split = r.enq
		}
		if split.After(flush) {
			split = flush
		}
		mStageQueue.ObserveDuration(r.tr.MarkAt(StageQueueWait, split))
		mStageForm.ObserveDuration(r.tr.MarkAt(StageBatchForm, flush))
		r.tr.Annotate("batch_size", len(live))
		r.tr.Annotate("flush", reason)
	}

	xs := tensor.NewMatrix(len(live), m.InDim)
	for i, r := range live {
		copy(xs.Row(i), r.x)
	}
	// The compiled precision plan serves only when it was lowered from the
	// exact model version this batch snapshotted; during the swap→relower
	// window the versions differ and the batch takes the exact f64 path.
	var all *tensor.Matrix
	if ps := e.plan.Load(); ps != nil && ps.plan != nil && ps.version == ver {
		all = ps.plan.EstimateAllTausBatch(xs)
	} else {
		all = m.EstimateAllTausBatch(xs)
	}
	fwdEnd := time.Now()
	for _, r := range live {
		if r.tr != nil {
			mStageForward.ObserveDuration(r.tr.MarkAt(StageForward, fwdEnd))
		}
	}
	for i, r := range live {
		curve := append([]float64(nil), all.Row(i)...)
		if e.cfg.CurveCheck != nil {
			e.cfg.CurveCheck(curve)
		}
		if e.cache != nil {
			e.cache.Put(r.key, curve, gen)
		}
		r.done <- result{curve: curve}
	}
	if e.cache != nil {
		mCacheSize.Set(float64(e.cache.Len()))
	}
	if tp := e.shadow.Load(); tp != nil {
		(*tp)(xs, all)
	}
}
