package baselines

import (
	"math/rand"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// MoE is DL-MoE (Shazeer et al.'s sparsely-gated mixture-of-experts adapted
// to regression): a gating network produces a softmax over K expert FNNs and
// the prediction is the gate-weighted sum of expert outputs. Trained
// end-to-end on log-space MSE; the softmax gate is fully differentiable
// (dense gating — the sparse top-k variant reduces compute, not accuracy, at
// this scale).
type MoE struct {
	TauMax  int
	Experts int
	Hidden  []int
	Fit_    fitCfg

	gate    *nn.Sequential
	experts []*nn.Sequential
	inDim   int
}

// NewMoE builds a 4-expert mixture.
func NewMoE(tauMax int) *MoE {
	return &MoE{TauMax: tauMax, Experts: 4, Hidden: []int{48, 32}, Fit_: defaultFit()}
}

// Name identifies the model.
func (m *MoE) Name() string { return "DL-MoE" }

// Fit trains the gate and experts jointly.
func (m *MoE) Fit(train, _ *core.TrainSet) {
	x, _, y := flatten(train, m.TauMax)
	if len(x) == 0 {
		return
	}
	m.inDim = len(x[0])
	ylog := log1pTargets(y)
	rng := rand.New(rand.NewSource(m.Fit_.Seed))

	m.gate = nn.NewMLP(rng, []int{m.inDim, 32, m.Experts}, nn.ReLU, nn.Identity)
	m.experts = make([]*nn.Sequential, m.Experts)
	var params []*nn.Param
	params = append(params, m.gate.Params()...)
	for k := range m.experts {
		dims := append([]int{m.inDim}, m.Hidden...)
		dims = append(dims, 1)
		m.experts[k] = nn.NewMLP(rng, dims, nn.ReLU, nn.Identity)
		params = append(params, m.experts[k].Params()...)
	}
	opt := nn.NewAdam(params, m.Fit_.LR)
	ctx := nn.NewCtx() // serves every step: AddGradsInto empties it

	perm := make([]int, len(x))
	for i := range perm {
		perm[i] = i
	}
	for e := 0; e < m.Fit_.Epochs; e++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for start := 0; start < len(perm); start += m.Fit_.Batch {
			end := start + m.Fit_.Batch
			if end > len(perm) {
				end = len(perm)
			}
			rows := perm[start:end]
			b := len(rows)
			xb := tensor.NewMatrix(b, m.inDim)
			yb := make([]float64, b)
			for i, r := range rows {
				copy(xb.Row(i), x[r])
				yb[i] = ylog[r]
			}

			logits := m.gate.Forward(ctx, xb, true)
			gates := nn.Softmax(logits)
			outs := make([]*tensor.Matrix, m.Experts)
			for k := range m.experts {
				outs[k] = m.experts[k].Forward(ctx, xb, true)
			}
			pred := make([]float64, b)
			for i := 0; i < b; i++ {
				for k := 0; k < m.Experts; k++ {
					pred[i] += gates.At(i, k) * outs[k].Data[i]
				}
			}

			// Backward: dL/dpred, split into expert and gate paths.
			dLogits := tensor.NewMatrix(b, m.Experts)
			dOuts := make([]*tensor.Matrix, m.Experts)
			for k := range dOuts {
				dOuts[k] = tensor.NewMatrix(b, 1)
			}
			for i := 0; i < b; i++ {
				g := nn.MSEGrad(pred[i], yb[i], b)
				// Expert path: d pred/d out_k = gate_k.
				var dot float64
				for k := 0; k < m.Experts; k++ {
					dOuts[k].Data[i] = g * gates.At(i, k)
					dot += gates.At(i, k) * outs[k].Data[i]
				}
				// Gate path through softmax: dL/dlogit_k =
				// g·gate_k·(out_k − Σ_j gate_j·out_j).
				for k := 0; k < m.Experts; k++ {
					dLogits.Set(i, k, g*gates.At(i, k)*(outs[k].Data[i]-dot))
				}
			}
			for k := range m.experts {
				m.experts[k].Backward(ctx, dOuts[k])
			}
			m.gate.Backward(ctx, dLogits)
			ctx.AddGradsInto(params)
			nn.ClipGradNorm(params, 5)
			opt.Step()
		}
	}
}

// Estimate computes the gated mixture output.
func (m *MoE) Estimate(x []float64, tau int) float64 {
	if m.gate == nil {
		return 0
	}
	row := make([]float64, len(x)+1)
	copy(row, x)
	if m.TauMax > 0 {
		row[len(x)] = float64(tau) / float64(m.TauMax)
	}
	xm := &tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	gates := nn.Softmax(m.gate.Forward(nil, xm, false))
	var pred float64
	for k, ex := range m.experts {
		pred += gates.At(0, k) * ex.Forward(nil, xm, false).Data[0]
	}
	return fromLog(pred)
}

// SizeBytes sums gate and expert parameters.
func (m *MoE) SizeBytes() int {
	if m.gate == nil {
		return 0
	}
	n := nn.ParamBytes(m.gate.Params())
	for _, ex := range m.experts {
		n += nn.ParamBytes(ex.Params())
	}
	return n
}
