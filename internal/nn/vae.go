package nn

import (
	"math"
	"math/rand"

	"cardnet/internal/tensor"
)

// VAE is a variational auto-encoder over binary input vectors. The CardNet
// encoder Γ concatenates the raw binary vector with the VAE latent code to
// obtain a dense, robust representation (paper Section 5.2.1): training uses
// the reparameterized sample z = μ + ε⊙exp(½·logσ²); inference uses the
// deterministic expected latent E[z] = μ so the overall estimator stays
// deterministic (required for the monotonicity guarantee of Lemma 2).
type VAE struct {
	InDim, Latent int

	Encoder    *Sequential // InDim → hidden stack
	MuHead     *Dense      // hidden → Latent
	LogVarHead *Dense      // hidden → Latent
	Decoder    *Sequential // Latent → InDim, sigmoid output
}

// VAEOutput carries the intermediate tensors of one training-mode forward
// pass, needed by Backward.
type VAEOutput struct {
	H      *tensor.Matrix // encoder trunk output
	Mu     *tensor.Matrix
	LogVar *tensor.Matrix
	Eps    *tensor.Matrix
	Z      *tensor.Matrix // reparameterized latent
	Recon  *tensor.Matrix // sigmoid reconstruction
}

// NewVAE builds a VAE with the given hidden stack (applied symmetrically to
// encoder and decoder) and latent width. The paper uses ELU activations for
// the VAE, in line with its reference implementation.
func NewVAE(rng *rand.Rand, inDim int, hidden []int, latent int) *VAE {
	encDims := append([]int{inDim}, hidden...)
	enc := NewMLP(rng, encDims, ELU, ELU)
	lastHidden := encDims[len(encDims)-1]

	decDims := []int{latent}
	for i := len(hidden) - 1; i >= 0; i-- {
		decDims = append(decDims, hidden[i])
	}
	decDims = append(decDims, inDim)
	dec := NewMLP(rng, decDims, ELU, Sigmoid)

	return &VAE{
		InDim:      inDim,
		Latent:     latent,
		Encoder:    enc,
		MuHead:     NewDense(rng, lastHidden, latent),
		LogVarHead: NewDense(rng, lastHidden, latent),
		Decoder:    dec,
	}
}

// Params returns all learnable parameters.
func (v *VAE) Params() []*Param {
	ps := v.Encoder.Params()
	ps = append(ps, v.MuHead.Params()...)
	ps = append(ps, v.LogVarHead.Params()...)
	ps = append(ps, v.Decoder.Params()...)
	return ps
}

// ForwardTrain runs the stochastic (reparameterized) forward pass, keeping
// activation caches in c so concurrent training shards can share one VAE.
// Each shard must bring its own rng: the reparameterization noise is the one
// stochastic input of the whole model, and per-shard seeded streams are what
// keep a parallel run reproducible for a fixed worker count.
func (v *VAE) ForwardTrain(c *Ctx, x *tensor.Matrix, rng *rand.Rand) *VAEOutput {
	h := v.Encoder.Forward(c, x, true)
	mu := v.MuHead.Forward(c, h, true)
	logvar := v.LogVarHead.Forward(c, h, true)
	eps := tensor.NewMatrix(mu.Rows, mu.Cols)
	for i := range eps.Data {
		eps.Data[i] = rng.NormFloat64()
	}
	z := tensor.NewMatrix(mu.Rows, mu.Cols)
	for i := range z.Data {
		z.Data[i] = mu.Data[i] + eps.Data[i]*math.Exp(0.5*logvar.Data[i])
	}
	recon := v.Decoder.Forward(c, z, true)
	return &VAEOutput{H: h, Mu: mu, LogVar: logvar, Eps: eps, Z: z, Recon: recon}
}

// Mean returns the deterministic latent E[z] = μ for inference.
func (v *VAE) Mean(x *tensor.Matrix) *tensor.Matrix {
	h := v.Encoder.Forward(nil, x, false)
	return v.MuHead.Forward(nil, h, false)
}

// LossSums returns the unnormalized BCE and KL sums of one forward pass
// (BCE summed over dimensions and rows). Nothing is averaged, so minibatch
// shards can report partial sums that the caller combines and divides by the
// global batch size.
func (v *VAE) LossSums(out *VAEOutput, x *tensor.Matrix) (bceSum, klSum float64) {
	for i, p := range out.Recon.Data {
		p = clampProb(p)
		t := x.Data[i]
		bceSum += -t*math.Log(p) - (1-t)*math.Log(1-p)
	}
	for i := range out.Mu.Data {
		mu, lv := out.Mu.Data[i], out.LogVar.Data[i]
		klSum += -0.5 * (1 + lv - mu*mu - math.Exp(lv))
	}
	return bceSum, klSum
}

// Backward accumulates, into c's gradient buffers, the gradients of
// scale·(BCE + KL) plus an optional external gradient dzExtra on the latent z
// (used when a downstream regression loss flows back into the VAE during
// joint training). dzExtra may be nil. The loss normalization is pinned to
// normRows: a shard of a larger minibatch passes the global batch size so
// its partial gradients add up to exactly one batch-mean gradient across
// shards. The gradient w.r.t. the binary input is discarded (inputs are
// data, not learnables).
func (v *VAE) Backward(c *Ctx, out *VAEOutput, x *tensor.Matrix, scale float64, dzExtra *tensor.Matrix, normRows int) {
	batch := float64(normRows)

	dz := tensor.NewMatrix(out.Z.Rows, out.Z.Cols)
	if scale != 0 {
		// Reconstruction path: dBCE/dRecon, backward through decoder to z.
		dRecon := tensor.NewMatrix(out.Recon.Rows, out.Recon.Cols)
		n := normRows * x.Cols
		for i := range dRecon.Data {
			// BCE above is sum-over-dims, mean-over-rows: per-element grad is
			// elementwise BCE grad times cols (undo the per-element mean).
			dRecon.Data[i] = scale * BCEGrad(out.Recon.Data[i], x.Data[i], n) * float64(x.Cols)
		}
		dz = v.Decoder.Backward(c, dRecon)
	}
	if dzExtra != nil {
		for i := range dz.Data {
			dz.Data[i] += dzExtra.Data[i]
		}
	}

	// Reparameterization: z = μ + ε·exp(½·logσ²).
	dMu := tensor.NewMatrix(out.Mu.Rows, out.Mu.Cols)
	dLogVar := tensor.NewMatrix(out.Mu.Rows, out.Mu.Cols)
	for i := range dz.Data {
		std := math.Exp(0.5 * out.LogVar.Data[i])
		dMu.Data[i] = dz.Data[i]
		dLogVar.Data[i] = dz.Data[i] * out.Eps.Data[i] * 0.5 * std
	}
	if scale != 0 {
		// KL term: d/dμ = μ/batch, d/dlogσ² = ½(exp(logσ²)−1)/batch.
		for i := range dMu.Data {
			dMu.Data[i] += scale * out.Mu.Data[i] / batch
			dLogVar.Data[i] += scale * 0.5 * (math.Exp(out.LogVar.Data[i]) - 1) / batch
		}
	}

	dh1 := v.MuHead.Backward(c, dMu)
	dh2 := v.LogVarHead.Backward(c, dLogVar)
	for i := range dh1.Data {
		dh1.Data[i] += dh2.Data[i]
	}
	v.Encoder.Backward(c, dh1)
}

// Pretrain trains the VAE unsupervised on the given binary data for the
// requested epochs (the paper pretrains its VAE for 100 epochs before the
// regression model trains), splitting each minibatch's forward/backward
// across `workers` data-parallel shards on the shared worker pool. It returns
// the final epoch's mean loss. A fixed worker count is reproducible
// (per-shard noise streams are seeded from the parent rng in shard order,
// and shard gradients are reduced in shard order), but changing it changes
// which noise each example sees, so different counts are different — equally
// valid — training runs.
func (v *VAE) Pretrain(data *tensor.Matrix, epochs, batchSize int, lr float64, rng *rand.Rand, workers int) float64 {
	params := v.Params()
	opt := NewAdam(params, lr)
	perm := make([]int, data.Rows)
	if batchSize > data.Rows {
		batchSize = data.Rows
	}
	workers = max(workers, 1)
	xb := tensor.NewMatrix(batchSize, data.Cols) // reused across steps
	// One context per non-empty shard for the whole run: AddGradsInto
	// empties them after every step, so reuse only saves reallocation.
	ctxs := make([]*Ctx, min(workers, max(batchSize, 1)))
	for k := range ctxs {
		ctxs[k] = NewCtx()
	}
	seeds := make([]int64, workers)
	sums := make([]float64, len(ctxs))
	var last float64
	for e := 0; e < epochs; e++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var total float64
		var batches int
		for start := 0; start < data.Rows; start += batchSize {
			end := start + batchSize
			if end > data.Rows {
				end = data.Rows
			}
			n := end - start
			xv := xb.RowSlice(0, n)
			for r := start; r < end; r++ {
				copy(xv.Row(r-start), data.Row(perm[r]))
			}
			batches++
			// A lone shard draws its noise from rng itself, as the sequential
			// pretrainer always has: drawing a seed would move every bit.
			if workers > 1 {
				for k := range seeds {
					seeds[k] = rng.Int63()
				}
			}
			bounds := tensor.ShardBounds(n, workers) // shards ≥ n are empty
			w := min(workers, n)
			tensor.RunParts(w, func(k int) {
				srng := rng
				if workers > 1 {
					srng = rand.New(rand.NewSource(seeds[k]))
				}
				xs := xv.RowSlice(bounds[k], bounds[k+1])
				out := v.ForwardTrain(ctxs[k], xs, srng)
				bce, kl := v.LossSums(out, xs)
				sums[k] = bce + kl
				v.Backward(ctxs[k], out, xs, 1, nil, n)
			})
			// Ordered reduction: shard k's gradients land before shard
			// k+1's, independent of goroutine scheduling.
			var sum float64
			for k := 0; k < w; k++ {
				ctxs[k].AddGradsInto(params)
				sum += sums[k]
			}
			total += sum / float64(n)
			ClipGradNorm(params, 5)
			opt.Step()
		}
		if batches > 0 {
			last = total / float64(batches)
		}
	}
	return last
}
