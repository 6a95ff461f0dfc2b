package core

import (
	"cardnet/internal/feature"
	"cardnet/internal/obs"
)

// encodeLatency times the feature-extraction half of the composed estimate
// ĉ = g∘h, so dashboards can split an Estimate's latency between h (encode)
// and g (core.estimate_batch.seconds).
var encodeLatency = obs.Default.Histogram("core.encode.seconds", obs.TimeBuckets())

// Estimator binds a trained Model to a feature extractor, yielding the
// end-to-end ĉ = g∘h(x, θ) of Section 3.1 for records of type R. Because
// both h_thr and the model's prefix-sum estimate are monotone, the composed
// estimate is monotonically non-decreasing in θ (Lemma 1).
type Estimator[R any] struct {
	Ext   feature.Extractor[R]
	Model *Model
}

// NewEstimator pairs an extractor and a model.
func NewEstimator[R any](ext feature.Extractor[R], m *Model) *Estimator[R] {
	return &Estimator[R]{Ext: ext, Model: m}
}

// Estimate returns the estimated cardinality of the selection (q, θ).
func (e *Estimator[R]) Estimate(q R, theta float64) float64 {
	tm := obs.StartTimer(encodeLatency)
	x := e.Ext.Encode(q)
	tau := e.Ext.Threshold(theta)
	tm.Stop()
	return e.Model.EstimateEncoded(x, tau)
}

// Count adapts Estimate to the simselect.Counter interface (rounding to the
// nearest count).
func (e *Estimator[R]) Count(q R, theta float64) int {
	v := e.Estimate(q, theta)
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}
