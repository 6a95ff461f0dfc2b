package nn

import (
	"math"

	"cardnet/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	params                []*Param
	m, v                  [][]float64
	t                     int
}

// NewAdam binds an Adam optimizer with the usual defaults (β1=0.9, β2=0.999)
// and gives every parameter without one its gradient buffer.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		p.ensureGrad()
		a.m[i] = make([]float64, len(p.Value))
		a.v[i] = make([]float64, len(p.Value))
	}
	return a
}

// Step applies one Adam update and clears gradients. The bias corrections
// are computed once per step; tensor.AdamUpdate runs each parameter's loop.
func (a *Adam) Step() {
	a.t++
	k := tensor.AdamCoeffs{Beta1: a.Beta1, Beta2: a.Beta2, LR: a.LR, Eps: a.Eps,
		C1: 1 - math.Pow(a.Beta1, float64(a.t)),
		C2: 1 - math.Pow(a.Beta2, float64(a.t))}
	for i, p := range a.params {
		tensor.AdamUpdate(p.Value, p.Grad, a.m[i], a.v[i], k)
	}
}

// ZeroGrad clears all gradients without stepping.
func (a *Adam) ZeroGrad() { zeroGrads(a.params) }

func zeroGrads(params []*Param) {
	for _, p := range params {
		clear(p.Grad)
	}
}

// ClipGradNorm scales all gradients so that their global L2 norm is at most
// maxNorm. It returns the pre-clip norm. Training deep stacks on MSLE with
// long-tail labels occasionally produces spikes; clipping keeps Adam stable.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.Scale(scale, p.Grad)
		}
	}
	return norm
}
