package core

import (
	"math/rand"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// accelEncoder is the fused network Φ′ of Section 7 (CardNet-A). It is an
// FNN of n hidden layers f_1..f_n where hidden layer f_j, in addition to
// feeding f_{j+1}, emits region j of ALL τmax+1 embeddings through a head
// projection: Z_j = [z⁰[r_{j-1},r_j) : … : z^{τmax}[r_{j-1},r_j)]. The
// concatenated regions form the embedding matrix Z, replacing the τ+1
// separate Φ passes of the standard encoder and cutting inference cost from
// O((τ+1)·|Φ|) to O(|Φ′|).
type accelEncoder struct {
	layers   []*nn.Dense
	acts     []*nn.Activation
	heads    []*nn.Dense // h_j → tauCount·region_j
	regions  []int       // region widths, sum = zDim
	tauCount int
	zDim     int
}

// newAccelEncoder splits zDim into len(hidden) near-equal regions.
func newAccelEncoder(rng *rand.Rand, inDim int, hidden []int, zDim, tauCount int) *accelEncoder {
	a := &accelEncoder{tauCount: tauCount, zDim: zDim}
	n := len(hidden)
	base, rem := zDim/n, zDim%n
	prev := inDim
	for j, h := range hidden {
		a.layers = append(a.layers, nn.NewDense(rng, prev, h))
		a.acts = append(a.acts, nn.NewActivation(nn.ReLU))
		w := base
		if j < rem {
			w++
		}
		a.regions = append(a.regions, w)
		a.heads = append(a.heads, nn.NewDense(rng, h, tauCount*w))
		prev = h
	}
	return a
}

// Params returns all learnable parameters of Φ′.
func (a *accelEncoder) Params() []*nn.Param {
	var ps []*nn.Param
	for j := range a.layers {
		ps = append(ps, a.layers[j].Params()...)
		ps = append(ps, a.heads[j].Params()...)
	}
	return ps
}

// Forward maps xp (B × inDim) to Z (B·tauCount × zDim), laid out with row
// e·tauCount + i holding example e's embedding of distance i — the same
// layout the standard encoder produces, so the decoders are shared. Training
// caches go to the per-shard context c, letting concurrent training shards
// share one Φ′ instance. Both modes run the same layer forwards.
//
// The scatter target z comes from Ctx.Scratch, so a trainer's per-shard
// context reuses it across steps. It is fully overwritten before it is read:
// z's regions cover all zDim columns.
func (a *accelEncoder) Forward(c *nn.Ctx, xp *tensor.Matrix, train bool) *tensor.Matrix {
	b := xp.Rows
	z := c.Scratch(a, "z", b*a.tauCount, a.zDim)
	h := xp
	col := 0
	for j := range a.layers {
		h = a.acts[j].Forward(c, a.layers[j].Forward(c, h, train), train)
		zj := a.heads[j].Forward(c, h, train) // B × tauCount·w
		w := a.regions[j]
		for e := 0; e < b; e++ {
			src := zj.Row(e)
			for i := 0; i < a.tauCount; i++ {
				copy(z.Row(e*a.tauCount + i)[col:col+w], src[i*w:(i+1)*w])
			}
		}
		col += w
	}
	return z
}

// Backward consumes dZ in the Forward layout and returns dXp (B × inDim).
// Each head's gradient is combined with the gradient arriving from the next
// hidden layer, which is what lets every hidden layer learn directly from
// the final embeddings (the property Section 7 credits for Φ′'s accuracy).
// Parameter gradients accumulate into c's buffers.
func (a *accelEncoder) Backward(c *nn.Ctx, dz *tensor.Matrix) *tensor.Matrix {
	b := dz.Rows / a.tauCount
	// dH from the layer above (nil for the last layer).
	var dhNext *tensor.Matrix
	col := a.zDim
	for j := len(a.layers) - 1; j >= 0; j-- {
		w := a.regions[j]
		col -= w
		// Scratch-backed and fully overwritten by the gather loop below.
		dzj := c.Scratch(a.heads[j], "dzj", b, a.tauCount*w)
		for e := 0; e < b; e++ {
			dst := dzj.Row(e)
			for i := 0; i < a.tauCount; i++ {
				copy(dst[i*w:(i+1)*w], dz.Row(e*a.tauCount + i)[col:col+w])
			}
		}
		dh := a.heads[j].Backward(c, dzj)
		if dhNext != nil {
			for i := range dh.Data {
				dh.Data[i] += dhNext.Data[i]
			}
		}
		dhNext = a.layers[j].Backward(c, a.acts[j].Backward(c, dh))
	}
	return dhNext
}
