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
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 256).
	QueueDepth int
	// Workers is the number of batch-running goroutines (default
	// GOMAXPROCS). Each worker forms and runs its own batches; the model
	// forward pass is goroutine-safe. A worker never waits for more requests,
	// so a single worker would serialise lone requests, while one per CPU
	// runs them in parallel; idle workers only block on the queue.
	Workers int
	// CacheEntries is the estimate-cache capacity in query curves (TauMax+1
	// float64 each); 0 uses the default 4096, negative disables the cache.
	CacheEntries int
	// CurveCheck, when set, receives every freshly computed τ-sweep estimate
	// curve (cache hits are not re-checked). The drift monitor wires its
	// monotonicity validator here. The callback must not retain the slice and
	// must be cheap: it runs on the batch worker's hot path.
	CurveCheck func(curve []float64)
}

// cacheShards is the lock-striping width of the engine's curve cache.
const cacheShards = 8

// requestTimeout bounds how long a request that misses the cache waits for
// its curve, queue wait plus forward pass, on top of any deadline its
// context carries. A hit waits for nothing and so makes no timer. It is a
// variable only so tests can shorten it.
var requestTimeout = 2 * time.Second

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

// NewEngine starts cfg.Workers batch workers over the registry's published
// plan and hooks cache invalidation to registry swaps.
func NewEngine(reg *Registry, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		reg:   reg,
		cache: newCurveCache(cfg.CacheEntries, cacheShards),
		q:     make(chan *request, cfg.QueueDepth),
	}
	if e.cache != nil {
		reg.OnSwap(e.cache.Invalidate)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Registry exposes the engine's model registry (for the reload endpoint).
func (e *Engine) Registry() *Registry { return e.reg }

// Precision reports the gate verdict of the published plan: which tier was
// requested, which tier is actually serving, and the measured q-error delta.
// Exposed through /healthz.
func (e *Engine) Precision() infer.GateResult { return e.reg.Current().Gate }

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
	if m := e.reg.Current().Model; tau < 0 || tau > m.Cfg.TauMax {
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
	if m := e.reg.Current().Model; len(x) != m.InDim {
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
	return e.dispatch(ctx, x, key, tr)
}

// markCache closes the cache-lookup stage on a traced request.
func markCache(tr *obs.Trace, hit bool) {
	if tr == nil {
		return
	}
	mStageCache.ObserveDuration(tr.Mark(StageCache))
	tr.Annotate("cache_hit", hit)
}

// dispatch queues x for a batched forward pass and waits for its curve, the
// context's end or requestTimeout, whichever comes first.
func (e *Engine) dispatch(ctx context.Context, x []float64, key curveKey, tr *obs.Trace) ([]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	r := &request{ctx: ctx, x: x, key: key, done: make(chan result, 1), tr: tr}
	if err := e.submit(r); err != nil {
		return nil, err
	}
	select {
	case res := <-r.done:
		return res.curve, res.err
	case <-ctx.Done():
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

// collect forms a batch starting from first: it takes what is already
// queued, up to MaxBatch, and flushes without waiting for more, so requests
// that arrive during a forward pass form the next batch. The returned reason
// names what ended the batch — it filled (size), the queue ran empty
// (deadline, the name the counter and traces keep), or Close drained the
// queue (shutdown) — and every flush is counted under its reason.
func (e *Engine) collect(first *request) ([]*request, string) {
	batch := []*request{first}
	for len(batch) < e.cfg.MaxBatch {
		select {
		case r, ok := <-e.q:
			if !ok {
				mFlushShutdown.Inc()
				return batch, FlushShutdown
			}
			batch = append(batch, r)
		default:
			mFlushDeadline.Inc()
			return batch, FlushDeadline
		}
	}
	mFlushSize.Inc()
	return batch, FlushSize
}

// run executes one batch: expired requests are failed individually, the
// rest share a single stacked forward pass through the current snapshot's
// plan, and each row is copied out once as that query's curve, delivered and
// cached (so a cached curve never pins the batch matrix). The snapshot and
// cache generation are loaded together so a concurrent swap can neither fail
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
		gen = e.cache.Gen() // before the snapshot load: stale Puts must lose
	}
	plan := e.reg.Current().Plan

	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		select {
		case <-r.ctx.Done():
			mExpired.Inc()
			r.done <- result{err: r.ctx.Err()}
			continue
		default:
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

	xs := tensor.NewMatrix(len(live), plan.InDim())
	for i, r := range live {
		copy(xs.Row(i), r.x)
	}
	all := plan.EstimateAllTausBatch(xs)
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
