// Plan lowering: the model-side half of the compiled inference path.
//
// Lower flattens a trained CardNet / CardNet-A into a LoweredModel, the
// purely numeric spec internal/infer builds every inference plan from: each
// dense layer's weights in ABT (Out×In) form, biases folded, and the
// CardNet-A head projections algebraically fused with both the
// embedding-region scatter and the per-distance decoders. Unfused layers are
// views of the model's parameter storage, not copies; only the fused and
// folded matrices are new. A model that has been lowered must therefore not
// be trained afterwards (the serving registry only ever publishes frozen
// models, and the autopilot retrains a clone).
//
// The CardNet-A fusion: the stock forward computes, per hidden layer j with
// region width w and region column offset col,
//
//	zj = h_j·Whead_jᵀ + bhead_j                   (B × τcount·w)
//	z[e·τcount+i][col+u] = zj[e][i·w+u]           (scatter copy loops)
//	pre[e][i] = Σ_col decW[i][col]·z[e,i][col] + decB[i]
//
// Substituting the scatter into the decoder dot product and exchanging sums:
//
//	pre[e][i] = Σ_j Σ_k h_j[e][k] · F_j[i][k] + β[i]
//	F_j[i][k] = Σ_u decW[i][col_j+u] · Whead_j[i·w+u][k]
//	β[i]      = decB[i] + Σ_j Σ_u decW[i][col_j+u] · bhead_j[i·w+u]
//
// F_j is a τcount×h_j matrix: one fused product per layer replaces a
// τcount·w-wide head product, a w-row scatter per example, and the decoder
// dots — cutting head flops by the region width (≈15× at paper scale) and
// eliminating the copy loops entirely. The fused forward differs from the
// unfused one only by float64 reassociation (about 1e-14 relative).
//
// The standard (non-accel) encoder gets the analogous constant folding: the
// first Φ layer's weight splits into an x′ part and an embedding part, and
// since row (e, i) always carries the same embedding eᵢ, the embedding half
// collapses into a per-distance bias matrix PB[i] = eᵢ·W1eᵀ + b1 computed
// once at lowering time; the per-example half u = x′·W1xᵀ is computed once
// per example instead of once per (example, τ).

package core

import (
	"fmt"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// LoweredDense is one dense layer of a lowered model: out = act(x·Wᵀ + b),
// with W stored Out×In, the right-hand operand of tensor.MatMulABT.
type LoweredDense struct {
	W   *tensor.Matrix // Out×In
	B   []float64      // len Out
	Act nn.ActKind
}

// LoweredModel is the inference spec extracted by Model.Lower. Its unfused
// layers and decoders are views of the model's weights; the fused heads,
// HeadBias, WX and PerDist are its own.
type LoweredModel struct {
	InDim    int
	XpDim    int // InDim + VAE latent width
	TauCount int

	// VAE mean path (empty when the model is VAE-ablated): the encoder ELU
	// stack followed by the Identity μ head, producing the deterministic
	// latent that inference concatenates to x.
	VAE []LoweredDense

	// Accel selects which of the two encoder specs below is populated.
	Accel bool

	// CardNet-A: ReLU trunk layers; Heads[j] is the fused head F_j
	// (τcount×h_j); HeadBias is β.
	Trunk    []LoweredDense
	Heads    []*tensor.Matrix
	HeadBias []float64

	// Standard CardNet: WX is the x′ column block of the first Φ layer
	// (h1×XpDim), PerDist the folded per-distance bias matrix (τcount×h1)
	// to which the first layer's ReLU applies, Rest the remaining ReLU
	// layers, and DecW/DecB the per-distance decoders (DecW is τcount×ZDim).
	WX      *tensor.Matrix
	PerDist *tensor.Matrix
	Rest    []LoweredDense
	DecW    *tensor.Matrix
	DecB    []float64
}

// lowerDense views a Dense layer as a LoweredDense.
func lowerDense(d *nn.Dense, act nn.ActKind) LoweredDense {
	return LoweredDense{W: &tensor.Matrix{Rows: d.Out, Cols: d.In, Data: d.W.Value}, B: d.B.Value, Act: act}
}

// lowerSequential extracts the Dense layers of a Dense/Activation chain,
// attaching each activation to the Dense it follows.
func lowerSequential(layers []nn.Layer) []LoweredDense {
	var out []LoweredDense
	for _, l := range layers {
		switch v := l.(type) {
		case *nn.Dense:
			out = append(out, lowerDense(v, nn.Identity))
		case *nn.Activation:
			if len(out) == 0 {
				panic("core: lowering: activation before first dense layer")
			}
			out[len(out)-1].Act = v.Kind
		default:
			panic(fmt.Sprintf("core: lowering: unsupported layer %T", l))
		}
	}
	return out
}

// Lower flattens the model into a LoweredModel (see the file comment for the
// fusion algebra). It runs once per model load or hot swap, never on the
// request path, and only reads weight values, so it is safe to call
// concurrently with inference.
func (m *Model) Lower() *LoweredModel {
	t := m.tauCount()
	lm := &LoweredModel{
		InDim:    m.InDim,
		XpDim:    m.InDim + m.Cfg.VAELatent,
		TauCount: t,
		Accel:    m.Cfg.Accel,
	}
	if m.vae != nil {
		lm.VAE = lowerSequential(m.vae.Encoder.Layers)
		lm.VAE = append(lm.VAE, lowerDense(m.vae.MuHead, nn.Identity))
	}

	if m.Cfg.Accel {
		lm.HeadBias = append([]float64(nil), m.decB.Value...)
		col := 0
		for j, layer := range m.accel.layers {
			lm.Trunk = append(lm.Trunk, lowerDense(layer, nn.ReLU))
			w := m.accel.regions[j]
			head := m.accel.heads[j] // h_j → τcount·w
			hj := head.In
			f := tensor.NewMatrix(t, hj) // F_j[i][k] = Σ_u decW[i][col+u]·Whead[(i·w+u)][k]
			for i := 0; i < t; i++ {
				dw := m.decW.Value[i*m.Cfg.ZDim : (i+1)*m.Cfg.ZDim]
				fi := f.Row(i)
				for u := 0; u < w; u++ {
					d := dw[col+u]
					lm.HeadBias[i] += d * head.B.Value[i*w+u]
					if d == 0 {
						continue
					}
					for k, hv := range head.W.Value[(i*w+u)*hj : (i*w+u+1)*hj] {
						fi[k] += d * hv
					}
				}
			}
			lm.Heads = append(lm.Heads, f)
			col += w
		}
		return lm
	}

	// Standard encoder: split the first Φ layer, fold the embeddings.
	rest := lowerSequential(m.phi.Layers)
	first := rest[0]
	if first.Act != nn.ReLU {
		panic("core: lowering: first Φ layer is not ReLU")
	}
	h1 := first.W.Rows
	lm.WX = tensor.NewMatrix(h1, lm.XpDim)
	lm.PerDist = tensor.NewMatrix(t, h1)
	for o := 0; o < h1; o++ {
		row := first.W.Row(o)
		copy(lm.WX.Row(o), row[:lm.XpDim])
		for i := 0; i < t; i++ {
			s := first.B[o]
			for u, ev := range m.embedding(i) {
				s += ev * row[lm.XpDim+u]
			}
			lm.PerDist.Set(i, o, s)
		}
	}
	lm.Rest = rest[1:]
	lm.DecW = &tensor.Matrix{Rows: t, Cols: m.Cfg.ZDim, Data: m.decW.Value}
	lm.DecB = m.decB.Value
	return lm
}
