// Package serving is the production inference engine around a trained
// core.Model: it turns the paper's cheap CardNet-A forward pass (Section 7)
// into a component a query optimizer can actually sit on top of under heavy
// concurrent traffic, and wires the incremental-learning story (Section 8)
// into a hot-swappable model registry.
//
// Four cooperating parts:
//
//   - Micro-batching: concurrent estimate requests are queued and coalesced
//     into a single B×d forward pass through the published plan
//     (infer.Plan.EstimateAllTausBatch). A free worker takes whatever is
//     queued, up to Config.MaxBatch, and runs it at once; it never waits for
//     more, so requests that arrive during one forward pass form the next
//     batch. Each row of a batch is bit-equal to the same query run alone.
//   - Admission control: a bounded queue with per-request context deadlines.
//     When the queue is full, Estimate fails fast with ErrOverloaded (the
//     HTTP layer maps it to 503) instead of piling up goroutines.
//   - Estimate cache: a sharded LRU of estimate curves, one per packed x
//     (one bit per feature, so the key is exact, not a hash). Every miss
//     computes the whole monotone curve g(x, 0..τmax) anyway (Lemmas 1–2),
//     so one forward answers every τ of that query, point or full curve. It
//     is invalidated on model swap via a generation counter so results
//     computed against a replaced model can never be served afterwards.
//   - Model registry: an atomic pointer to one immutable Snapshot — model,
//     compiled plan, gate verdict, version. Swap validates shape
//     compatibility (InDim, TauMax), compiles the new model's plan, and only
//     then publishes, without failing in-flight requests — batches already
//     formed finish on the snapshot they loaded. PlanConfig.Precision picks
//     the plan's tier: the fused f64 plan (default) or the f32 plan, which
//     serves only after the accuracy-delta gate passes (q-error p99 delta
//     within bound, zero Lemma-2 monotonicity violations); a failed gate
//     serves the f64 plan.
//
// Everything is instrumented on obs.Default under the "serving." prefix.
package serving

import (
	"errors"

	"cardnet/internal/obs"
)

// Typed failures the HTTP layer maps to status codes.
var (
	// ErrOverloaded means the admission queue was full; the client should
	// back off and retry (HTTP 503).
	ErrOverloaded = errors.New("serving: overloaded, queue full")
	// ErrClosed means the engine has shut down (HTTP 503 during drain).
	ErrClosed = errors.New("serving: engine closed")
	// ErrBadInput wraps request-validation failures (HTTP 400).
	ErrBadInput = errors.New("serving: bad input")
)

// Pipeline stages in request order, each naming its trace entry and its
// histogram: admission (parse + validate; HTTP layer), cache (curve-cache
// lookup), queue.wait (enqueue until a worker starts forming the batch),
// batch.form (formation until flush), forward (the shared stacked forward
// pass), write (result delivery + response encoding; HTTP layer).
var (
	StageAdmission = &obs.Stage{Name: "admission", Hist: obs.Default.Histogram("serving.stage.admission.seconds", obs.TimeBuckets())}
	StageCache     = &obs.Stage{Name: "cache", Hist: obs.Default.Histogram("serving.stage.cache.seconds", obs.TimeBuckets())}
	StageQueueWait = &obs.Stage{Name: "queue.wait", Hist: obs.Default.Histogram("serving.stage.queue.wait.seconds", obs.TimeBuckets())}
	StageBatchForm = &obs.Stage{Name: "batch.form", Hist: obs.Default.Histogram("serving.stage.batch.form.seconds", obs.TimeBuckets())}
	StageForward   = &obs.Stage{Name: "forward", Hist: obs.Default.Histogram("serving.stage.forward.seconds", obs.TimeBuckets())}
	StageWrite     = &obs.Stage{Name: "write", Hist: obs.Default.Histogram("serving.stage.write.seconds", obs.TimeBuckets())}
)

// E2EHistogram is the end-to-end request latency histogram the HTTP layer
// records and the SLO tracker evaluates; the stage histograms above tile it
// exactly.
const E2EHistogram = "serving.e2e.seconds"

// Batch flush reasons, annotated on traces and counted under
// "serving.batch.flush_<reason>".
const (
	FlushSize     = "size"     // batch reached Config.MaxBatch
	FlushDeadline = "deadline" // the queue ran empty (the name predates the zero-wait batcher)
	FlushShutdown = "shutdown" // Close drained the queue mid-batch
)

// Engine and registry metrics, on the shared default registry so
// `cardnet serve` /metrics exposes them without extra plumbing.
var (
	mQueueDepth    = obs.Default.Gauge("serving.queue.depth")
	mRequests      = obs.Default.Counter("serving.requests")
	mOverloaded    = obs.Default.Counter("serving.overloaded")
	mExpired       = obs.Default.Counter("serving.expired")
	mBatchSize     = obs.Default.Histogram("serving.batch.size", obs.LinearBuckets(1, 1, 64))
	mFlushSize     = obs.Default.Counter("serving.batch.flush_size")
	mFlushDeadline = obs.Default.Counter("serving.batch.flush_deadline")
	mFlushShutdown = obs.Default.Counter("serving.batch.flush_shutdown")
	mCacheHits     = obs.Default.Counter("serving.cache.hits")
	mCacheMisses   = obs.Default.Counter("serving.cache.misses")
	mCacheEvicts   = obs.Default.Counter("serving.cache.evictions")
	mCacheSize     = obs.Default.Gauge("serving.cache.size")
	mSwaps         = obs.Default.Counter("serving.registry.swaps")
	mVersion       = obs.Default.Gauge("serving.registry.version")

	mPrecisionActive = obs.Default.Gauge("serving.precision.active_bits")
	mGateFailures    = obs.Default.Counter("serving.precision.gate_failures")
)
