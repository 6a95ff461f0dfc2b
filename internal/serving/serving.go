// Package serving is the production inference engine around a trained
// core.Model: it turns the paper's cheap CardNet-A forward pass (Section 7)
// into a component a query optimizer can actually sit on top of under heavy
// concurrent traffic, and wires the incremental-learning story (Section 8)
// into a hot-swappable model registry.
//
// Four cooperating parts:
//
//   - Micro-batching: concurrent estimate requests are queued and coalesced
//     into a single B×d forward pass through the shared Φ/Φ′ networks
//     (core.EstimateAllTausBatch). By default a free worker takes whatever
//     is queued and runs it at once, so requests that arrive during one
//     forward pass form the next batch; a batch flushes early only when it
//     reaches Config.MaxBatch. A positive Config.MaxWait instead holds a
//     batch open until it is full or that old. Batched results are
//     bit-identical to the per-sample paths.
//   - Admission control: a bounded queue with per-request context deadlines.
//     When the queue is full, Estimate fails fast with ErrOverloaded (the
//     HTTP layer maps it to 503) instead of piling up goroutines.
//   - Estimate cache: a sharded LRU of estimate curves, one per packed x
//     (one bit per feature, so the key is exact, not a hash). Every miss
//     computes the whole monotone curve g(x, 0..τmax) anyway (Lemmas 1–2),
//     so one forward answers every τ of that query, point or full curve. It
//     is invalidated on model swap via a generation counter so results
//     computed against a replaced model can never be served afterwards.
//   - Model registry: a versioned atomic pointer to the live model. Swap
//     validates shape compatibility (InDim, TauMax) and replaces the model
//     without failing in-flight requests — batches already formed finish on
//     the model they started with.
//   - Precision tiers: Config.Precision selects f64 (exact legacy forward),
//     f32, or int8. Compiled tiers run the fused internal/infer plan,
//     re-lowered on every swap, and serve only after the accuracy-delta gate
//     passes (q-error p99 delta within bound, zero Lemma-2 monotonicity
//     violations); a failed gate falls back to f64.
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

// Pipeline stage names, in request order. They name both the trace stages
// (obs.Trace.Mark) and the per-stage latency histograms
// ("serving.stage.<name>.seconds"), so a trace in the JSONL log lines up
// 1:1 with the /metrics histograms. Admission and write happen in the HTTP
// layer; the engine marks cache, queue.wait, batch.form, and forward.
const (
	StageAdmission = "admission"  // parse + validate, before entering the engine
	StageCache     = "cache"      // curve-cache lookup
	StageQueueWait = "queue.wait" // enqueue until a worker starts forming the batch
	StageBatchForm = "batch.form" // batch formation until flush (size/deadline/shutdown)
	StageForward   = "forward"    // shared stacked forward pass
	StageWrite     = "write"      // result delivery + HTTP response encoding
)

// StageHistName maps a stage name to its obs histogram name.
func StageHistName(stage string) string { return "serving.stage." + stage + ".seconds" }

// E2EHistogram is the end-to-end request latency histogram the HTTP layer
// records and the SLO tracker evaluates; the per-stage histograms above tile
// it exactly.
const E2EHistogram = "serving.e2e.seconds"

// Batch flush reasons, annotated on traces and counted under
// "serving.batch.flush_<reason>".
const (
	FlushSize     = "size"     // batch reached Config.MaxBatch
	FlushDeadline = "deadline" // MaxWait passed; with MaxWait 0, the queue ran empty
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

	mStageCache   = obs.Default.Histogram(StageHistName(StageCache), obs.TimeBuckets())
	mStageQueue   = obs.Default.Histogram(StageHistName(StageQueueWait), obs.TimeBuckets())
	mStageForm    = obs.Default.Histogram(StageHistName(StageBatchForm), obs.TimeBuckets())
	mStageForward = obs.Default.Histogram(StageHistName(StageForward), obs.TimeBuckets())
)
