// Package infer compiles trained CardNet / CardNet-A models into immutable
// inference plans, the one thing that answers an estimate: the serving
// stack, the paper experiments (internal/bench), `cardnet -mode estimate`,
// the examples and the record-level Estimator all lower a trained model and
// query its plan. The model's own nn forward is left to training validation
// and to the tests that keep the f64 plan within about 1e-14 of it.
//
// A Plan is built once per model load or hot swap from the fused
// core.LoweredModel spec (biases folded, Φ′ head projections fused with the
// embedding-region scatter and the per-distance decoders — see
// internal/core/lowering.go for the algebra) at one of two precision tiers:
//
//   - PrecisionF64 runs the fused forward in float64. Batches of two or more
//     rows read its unfused layers as views of the model's weights; a
//     one-row batch reads transposed copies of them, and the fused heads are
//     copies too. So a plan lowered before a retrain (Model.IncrementalTrain)
//     would answer from old weights at batch 1 and from new ones at batch 2:
//     never retrain a model whose plan serves, and lower again after every
//     retrain. Fusion only reassociates float64 sums, so it tracks the
//     model's own nn forward to about 1e-14 relative, and it needs no gate.
//   - PrecisionF32 casts the weights to float32 and runs in float32. That
//     perturbs the learned function, so — following the paper's Lemma 2
//     contract and the monotonicity-under-perturbation argument that
//     motivated this design — an f32 plan may only serve after Compile's
//     accuracy gate passes: q-error p99 versus the f64 plan within a
//     configured bound AND zero CurveMonotone violations on the validation
//     sweep. Compile builds both plans side by side, and the sweeps run on
//     the tensor pool. On a gate failure Compile returns that f64 plan.
//
// Both tiers share one forward body over two tier-generic kernels; only the
// element type differs. Batches of two or more rows, and the fused heads, run
// tensor.ABT's register tile. A one-row batch runs every layer that can see
// it (the VAE layers, the CardNet-A trunk and standard CardNet's x′ product)
// through tensor.VecMat over a transposed copy of the weight kept once per
// plan; VecMat reads only the weight rows of nonzero inputs, and about half
// of a layer's inputs are exact zeros (ReLU outputs, binary features). It
// gives ABT's bits because every weight is finite (see VecMat), so a row's
// estimate does not depend on the batch it rides in. A forward runs inline
// on its caller's goroutine, since the serving engine already runs one batch
// per CPU. Lowering refuses a model with a NaN or infinite weight, which
// would otherwise be clamped into silent all-zero curves.
//
// Plans are immutable after compilation and safe for concurrent use; per-call
// transients come from an internal sync.Pool. A steady-state forward at
// either tier allocates only the returned result matrix;
// TestPlanForwardAllocs pins that.
package infer

import (
	"fmt"
	"math"
	"sync"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// Precision names an inference precision tier.
type Precision string

// The supported precision tiers.
const (
	PrecisionF64 Precision = "f64"
	PrecisionF32 Precision = "f32"
)

// ParsePrecision validates a tier name (as given to the -precision flag).
// The empty string parses as PrecisionF64.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionF64:
		return PrecisionF64, nil
	case PrecisionF32:
		return PrecisionF32, nil
	}
	return "", fmt.Errorf("infer: unknown precision %q (want f64 or f32)", s)
}

// Plan is an immutable compiled inference model at one precision tier.
// Build plans with Lower (ungated) or Compile (gated); the zero value is not
// usable.
type Plan struct {
	tier  Precision
	inDim int
	tau   int
	fwd   interface {
		forward(xs *tensor.Matrix) *tensor.Matrix
		forwardUnpooled(xs, out *tensor.Matrix)
	}
}

// Tier reports the plan's precision tier.
func (p *Plan) Tier() Precision { return p.tier }

// InDim reports the expected feature dimensionality.
func (p *Plan) InDim() int { return p.inDim }

// TauCount reports the number of per-distance decoders (τmax+1).
func (p *Plan) TauCount() int { return p.tau }

// Lower compiles a model into an ungated plan at the given tier. It fails on
// an unknown tier and on any NaN or infinite weight in the compiled plan
// (fused heads included). Serving paths should use Compile, which gates the
// f32 tier; Lower exists for callers that need the plan regardless of the
// gate outcome.
func Lower(m *core.Model, tier Precision) (*Plan, error) {
	return lower(m.Lower(), tier)
}

// lower builds the plan of a lowered spec at the given tier. It only reads
// lm, so one spec can build both tiers at once.
func lower(lm *core.LoweredModel, tier Precision) (*Plan, error) {
	p := &Plan{tier: tier, inDim: lm.InDim, tau: lm.TauCount}
	var finite bool
	switch tier {
	case PrecisionF64:
		b := build(lm, func(v []float64) []float64 { return v })
		p.fwd, finite = b, b.finite()
	case PrecisionF32:
		b := build(lm, tensor.Demote32Vec)
		p.fwd, finite = b, b.finite()
	default:
		return nil, fmt.Errorf("infer: no plan for tier %q", tier)
	}
	if !finite {
		return nil, fmt.Errorf("infer: model has a NaN or infinite weight at tier %s", tier)
	}
	return p, nil
}

// EstimateAllTaus returns the estimate curve for one encoded query — a
// single-row EstimateAllTausBatch.
func (p *Plan) EstimateAllTaus(x []float64) []float64 {
	xm := &tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	return p.EstimateAllTausBatch(xm).Row(0)
}

// Estimate returns the estimate for one encoded query at transformed
// threshold τ: 0 for τ < 0, and the EstimateAllTaus curve at τ clamped to
// TauMax otherwise. The result is monotonically non-decreasing in τ.
func (p *Plan) Estimate(x []float64, tau int) float64 {
	if tau < 0 {
		return 0
	}
	return p.EstimateAllTaus(x)[min(tau, p.tau-1)]
}

// EstimateAllTausBatch runs the compiled forward over a batch: xs is B×InDim
// and the result is B×(TauMax+1) prefix-sum estimates — the same contract as
// Model.EstimateAllTausBatch, evaluated through the fused weights at the
// plan's precision tier. Per-distance outputs are clamped at zero before a
// float64 prefix sum, so every returned row satisfies core.CurveMonotone by
// construction (adding non-negative terms never decreases the sum). Rows are
// independent: each row of a batch is bit-equal to its single-row call. Safe
// for concurrent callers.
func (p *Plan) EstimateAllTausBatch(xs *tensor.Matrix) *tensor.Matrix {
	if xs.Cols != p.inDim {
		panic(fmt.Sprintf("infer: feature dim %d, plan expects %d", xs.Cols, p.inDim))
	}
	return p.fwd.forward(xs)
}

// dense is one compiled dense layer: out = act(x·wᵀ + b), w Out×In. wt is
// wᵀ for the one-row forward, nil on a layer that never sees one row.
type dense[T tensor.Float] struct {
	w, wt *tensor.Mat[T]
	b     []T
	act   nn.ActKind
}

// body is the tier-generic compiled model and its forward.
type body[T tensor.Float] struct {
	inDim    int
	xpDim    int
	tauCount int
	accel    bool

	vae []dense[T]

	// CardNet-A: ReLU trunk; heads are the fused F_j products (τcount×h_j),
	// accumulated into one pre-activation matrix before headBias (β).
	trunk    []dense[T]
	heads    []*tensor.Mat[T]
	headBias []T

	// Standard CardNet: first-layer x′ product (and its transpose),
	// folded per-distance bias, remaining layers, per-distance decoders.
	wx, wxT *tensor.Mat[T]
	perDist *tensor.Mat[T]
	rest    []dense[T]
	decW    *tensor.Mat[T]
	decB    []T

	// pool (*scratch[T]) is allocated apart: a used pool stays reachable
	// until the second GC, and must not keep a replaced plan's weights alive.
	pool *sync.Pool
}

// build compiles the lowered spec into a tier body; conv maps float64
// storage to the tier's (the identity for f64, so unfused layers stay views
// of the model's weights). The layers that see a one-row batch keep a
// transpose too: the VAE, the CardNet-A trunk and standard CardNet's wx.
// Standard CardNet's other layers run τcount rows per query. Each weight
// matrix is converted, and transposed where kept, as one job on the tensor
// pool (tensor.RunAll).
func build[T tensor.Float](lm *core.LoweredModel, conv func([]float64) []T) *body[T] {
	var jobs []func()
	// m returns x's tier matrix, filled by a queued job that also stores
	// its transpose in *wt when wt is non-nil.
	m := func(x *tensor.Matrix, wt **tensor.Mat[T]) *tensor.Mat[T] {
		w := &tensor.Mat[T]{Rows: x.Rows, Cols: x.Cols}
		jobs = append(jobs, func() {
			w.Data = conv(x.Data)
			if wt != nil {
				*wt = tensor.Transpose(w)
			}
		})
		return w
	}
	layers := func(ls []core.LoweredDense, oneRow bool) []dense[T] {
		out := make([]dense[T], len(ls))
		for i, d := range ls {
			out[i] = dense[T]{b: conv(d.B), act: d.Act}
			var wt **tensor.Mat[T]
			if oneRow {
				wt = &out[i].wt
			}
			out[i].w = m(d.W, wt)
		}
		return out
	}
	b := &body[T]{inDim: lm.InDim, xpDim: lm.XpDim, tauCount: lm.TauCount, accel: lm.Accel, vae: layers(lm.VAE, true)}
	if lm.Accel {
		b.trunk = layers(lm.Trunk, true)
		for _, h := range lm.Heads {
			b.heads = append(b.heads, m(h, nil))
		}
		b.headBias = conv(lm.HeadBias)
	} else {
		b.wx, b.perDist, b.rest = m(lm.WX, &b.wxT), m(lm.PerDist, nil), layers(lm.Rest, false)
		b.decW, b.decB = m(lm.DecW, nil), conv(lm.DecB)
	}
	tensor.RunAll(jobs...)
	b.pool = &sync.Pool{New: func() any { return &scratch[T]{} }}
	return b
}

// finite reports whether every compiled weight and bias is finite (a
// transpose holds its weight's values, so it needs no check of its own).
func (b *body[T]) finite() bool {
	vecs := [][]T{b.headBias, b.decB}
	for _, ls := range [][]dense[T]{b.vae, b.trunk, b.rest} {
		for _, d := range ls {
			vecs = append(vecs, d.w.Data, d.b)
		}
	}
	for _, m := range b.heads {
		vecs = append(vecs, m.Data)
	}
	for _, m := range []*tensor.Mat[T]{b.wx, b.perDist, b.decW} {
		if m != nil {
			vecs = append(vecs, m.Data)
		}
	}
	for _, v := range vecs {
		for _, x := range v {
			if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// scratch holds the per-call transient buffers of one forward. Buffers grow
// to the high-water mark of the batch sizes seen and are reused via the
// body's pool, so they are not reallocated per forward.
type scratch[T tensor.Float] struct {
	x      *tensor.Mat[T] // input batch in the tier's type
	a, b   *tensor.Mat[T] // ping-pong chain buffers (B rows)
	xp     *tensor.Mat[T] // concatenated x′
	pre    *tensor.Mat[T] // per-distance pre-activations (B × τcount)
	za, zb *tensor.Mat[T] // standard-path chain buffers (B·τcount rows)
}

// ensure returns *slot resized to rows×cols, reallocating only on growth.
// Contents are undefined; callers overwrite fully.
func ensure[T tensor.Float](slot **tensor.Mat[T], rows, cols int) *tensor.Mat[T] {
	m := *slot
	if m == nil || cap(m.Data) < rows*cols {
		m = &tensor.Mat[T]{Data: make([]T, rows*cols)}
		*slot = m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// layer runs d on x into whichever of the two slots does not hold x.
func (b *body[T]) layer(d *dense[T], x *tensor.Mat[T], s1, s2 **tensor.Mat[T]) *tensor.Mat[T] {
	if *s1 == x {
		s1 = s2
	}
	out := ensure(s1, x.Rows, d.w.Rows)
	mul(x, d.w, d.wt, out)
	for e := 0; e < out.Rows; e++ {
		row := out.Row(e)
		for o, v := range d.b {
			row[o] += v
		}
	}
	activate(d.act, out.Data)
	return out
}

// mul stores x·wᵀ into out: through VecMat over wt, w's transpose, when x
// is one row and wt is kept, and through the ABT tile otherwise. Both give
// the same bits.
func mul[T tensor.Float](x, w, wt, out *tensor.Mat[T]) {
	if x.Rows == 1 && wt != nil {
		tensor.VecMat(x.Data, wt, out.Data)
		return
	}
	tensor.ABT(x, w, out, false)
}

// activate applies an activation kind in place, matching
// nn.Activation.Apply exactly at float64.
func activate[T tensor.Float](kind nn.ActKind, data []T) {
	switch kind {
	case nn.ReLU:
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			}
		}
	case nn.ELU:
		for i, v := range data {
			if v < 0 {
				data[i] = T(math.Exp(float64(v))) - 1
			}
		}
	case nn.Sigmoid:
		for i, v := range data {
			data[i] = T(1 / (1 + math.Exp(-float64(v))))
		}
	case nn.Tanh:
		for i, v := range data {
			data[i] = T(math.Tanh(float64(v)))
		}
	}
}

// forward is the one fused forward both tiers run, on pooled scratch.
func (b *body[T]) forward(xs *tensor.Matrix) *tensor.Matrix {
	s := b.pool.Get().(*scratch[T])
	defer b.pool.Put(s)
	out := tensor.NewMatrix(xs.Rows, b.tauCount)
	b.run(xs, s, out)
	return out
}

// forwardUnpooled is forward into out (xs.Rows × τcount) on scratch of its
// own, which the next GC frees. The gate sweeps run on it: their batch is
// larger than serving forms, and buffers grown for it would stay in the
// pool that every later serving batch reuses.
func (b *body[T]) forwardUnpooled(xs, out *tensor.Matrix) {
	b.run(xs, &scratch[T]{}, out)
}

// run is the forward on the scratch buffers s, written into out.
func (b *body[T]) run(xs *tensor.Matrix, s *scratch[T], out *tensor.Matrix) {
	n, t := xs.Rows, b.tauCount
	x := ensure(&s.x, n, b.inDim)
	for i, v := range xs.Data {
		x.Data[i] = T(v)
	}
	// VAE mean latent + x′ concatenation.
	xp := x
	if len(b.vae) > 0 {
		h := x
		for i := range b.vae {
			h = b.layer(&b.vae[i], h, &s.a, &s.b)
		}
		xp = ensure(&s.xp, n, b.xpDim)
		for e := 0; e < n; e++ {
			copy(xp.Row(e)[:b.inDim], x.Row(e))
			copy(xp.Row(e)[b.inDim:], h.Row(e))
		}
	}

	pre := ensure(&s.pre, n, t)
	if b.accel {
		h := xp
		for j := range b.trunk {
			h = b.layer(&b.trunk[j], h, &s.a, &s.b)
			tensor.ABT(h, b.heads[j], pre, j > 0)
		}
		for e := 0; e < n; e++ {
			row := pre.Row(e)
			for i, v := range b.headBias {
				row[i] += v
			}
		}
	} else {
		u := ensure(&s.a, n, b.wx.Rows)
		mul(xp, b.wx, b.wxT, u)
		z := ensure(&s.za, n*t, b.wx.Rows)
		for e := 0; e < n; e++ {
			ue := u.Row(e)
			for i := 0; i < t; i++ {
				row, pd := z.Row(e*t+i), b.perDist.Row(i)
				for o := range row {
					row[o] = ue[o] + pd[o]
				}
			}
		}
		activate(nn.ReLU, z.Data) // the first Φ layer's ReLU
		for i := range b.rest {
			z = b.layer(&b.rest[i], z, &s.za, &s.zb)
		}
		for e := 0; e < n; e++ {
			row := pre.Row(e)
			for i := range row {
				row[i] = tensor.Dot(b.decW.Row(i), z.Row(e*t+i)) + b.decB[i]
			}
		}
	}

	// ReLU clamp, then float64 prefix sums per row.
	for e := 0; e < n; e++ {
		orow := out.Row(e)
		var sum float64
		for i, v := range pre.Row(e) {
			if v > 0 {
				sum += float64(v)
			}
			orow[i] = sum
		}
	}
}
