package nn

import "math"

// MSE returns the mean squared error.
func MSE(pred, target []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		d := p - target[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MSEGrad returns dMSE/dpred for one pair.
func MSEGrad(pred, target float64, n int) float64 {
	return 2 * (pred - target) / float64(n)
}

// BCE returns the mean binary cross-entropy between probabilities p∈(0,1)
// and binary (or [0,1]) targets, summed over dimensions, averaged over rows.
func BCE(pred, target []float64) float64 {
	var s float64
	for i, p := range pred {
		p = clampProb(p)
		s += -target[i]*math.Log(p) - (1-target[i])*math.Log(1-p)
	}
	return s / float64(len(pred))
}

// BCEGrad returns dBCE/dpred for one element, given n total elements.
func BCEGrad(pred, target float64, n int) float64 {
	p := clampProb(pred)
	return (-target/p + (1-target)/(1-p)) / float64(n)
}

func clampProb(p float64) float64 {
	const eps = 1e-7
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
