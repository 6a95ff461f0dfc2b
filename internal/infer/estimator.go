package infer

import (
	"cardnet/internal/feature"
	"cardnet/internal/obs"
)

// encodeLatency times the feature-extraction half h of the composed
// estimate ĉ = g∘h.
var encodeLatency = obs.Default.Histogram("core.encode.seconds", obs.TimeBuckets())

// Estimator binds a trained model's plan to a feature extractor, yielding
// the end-to-end ĉ = g∘h(x, θ) of Section 3.1 for records of type R. Because
// both h_thr and the plan's prefix-sum estimate are monotone, the composed
// estimate is monotonically non-decreasing in θ (Lemma 1).
type Estimator[R any] struct {
	Ext  feature.Extractor[R]
	Plan *Plan
}

// Estimate returns the estimated cardinality of the selection (q, θ).
func (e *Estimator[R]) Estimate(q R, theta float64) float64 {
	tm := obs.StartTimer(encodeLatency)
	x := e.Ext.Encode(q)
	tau := e.Ext.Threshold(theta)
	tm.Stop()
	return e.Plan.Estimate(x, tau)
}
