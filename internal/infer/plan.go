// Package infer compiles trained CardNet / CardNet-A models into immutable
// inference plans, the only thing the serving stack answers requests with.
//
// A Plan is built once per model load or hot swap from the fused
// core.LoweredModel spec (biases folded, Φ′ head projections fused with the
// embedding-region scatter and the per-distance decoders — see
// internal/core/lowering.go for the algebra) at one of two precision tiers:
//
//   - PrecisionF64 runs the fused forward in float64 on tensor.MatMulABT.
//     Its unfused layers are views of the model's weights, so the model must
//     stay frozen while the plan serves. Fusion only reassociates float64
//     sums, so it tracks the model's own nn forward to about 1e-14 relative,
//     and it needs no gate.
//   - PrecisionF32 casts the weights to float32 and runs the float32
//     kernels. That perturbs the learned function, so — following the
//     paper's Lemma 2 contract and the monotonicity-under-perturbation
//     argument that motivated this design — an f32 plan may only serve after
//     Compile's accuracy gate passes: q-error p99 vs the nn forward within a
//     configured bound AND zero CurveMonotone violations on the validation
//     sweep. On a gate failure Compile returns the f64 plan instead.
//
// Both tiers share one forward body; only the kernels and the scratch
// element type differ. Lowering refuses a model with a NaN or infinite
// weight, which would otherwise be clamped into silent all-zero curves.
//
// Plans are immutable after compilation and safe for concurrent use; per-call
// transients come from an internal sync.Pool. A steady-state f32 forward
// allocates only the returned result matrix. So does an f64 forward on one
// tensor worker; on more, each f64 layer wide enough to split across the
// worker pool (tensor.PMatMulABT) adds its dispatch's allocations, a few
// dozen per call at paper-scale widths. TestPlanForwardAllocs pins both.
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
	lm := m.Lower()
	p := &Plan{tier: tier, inDim: lm.InDim, tau: lm.TauCount}
	var finite bool
	switch tier {
	case PrecisionF64:
		b := build(lm, kernels[float64]{abt: abt64, dot: tensor.Dot}, func(v []float64) []float64 { return v })
		p.fwd, finite = b, b.finite()
	case PrecisionF32:
		b := build(lm, kernels[float32]{abt: abt32, dot: tensor.Dot32}, tensor.Demote32Vec)
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

// num is the element type of a plan tier.
type num interface{ float32 | float64 }

// mat is a row-major matrix of one tier. Its layout is identical to
// tensor.Matrix (float64) and tensor.Matrix32 (float32), so the tier kernels
// take a *mat by pointer conversion, without a per-call header.
type mat[T num] struct {
	Rows, Cols int
	Data       []T
}

func (m *mat[T]) row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// kernels are a tier's primitives: abt computes out = x·wᵀ (or, with add,
// out += x·wᵀ), and dot is the inner product of two rows.
type kernels[T num] struct {
	abt func(x, w, out *mat[T], add bool)
	dot func(a, b []T) T
}

func abt64(x, w, out *mat[float64], add bool) {
	a, b, o := (*tensor.Matrix)(x), (*tensor.Matrix)(w), (*tensor.Matrix)(out)
	if add {
		tensor.MatMulABTAdd(a, b, o)
	} else {
		tensor.PMatMulABT(a, b, o)
	}
}

func abt32(x, w, out *mat[float32], add bool) {
	a, b, o := (*tensor.Matrix32)(x), (*tensor.Matrix32)(w), (*tensor.Matrix32)(out)
	if add {
		tensor.MatMulABTAdd32(a, b, o)
	} else {
		tensor.MatMulABT32(a, b, o)
	}
}

// dense is one compiled dense layer: out = act(x·wᵀ + b), w Out×In.
type dense[T num] struct {
	w   *mat[T]
	b   []T
	act nn.ActKind
}

// body is the tier-generic compiled model and its forward.
type body[T num] struct {
	k        kernels[T]
	inDim    int
	xpDim    int
	tauCount int
	accel    bool

	vae []dense[T]

	// CardNet-A: ReLU trunk; heads are the fused F_j products (τcount×h_j),
	// accumulated into one pre-activation matrix before headBias (β).
	trunk    []dense[T]
	heads    []*mat[T]
	headBias []T

	// Standard CardNet: first-layer x′ product, folded per-distance bias,
	// remaining layers, per-distance decoders.
	wx      *mat[T]
	perDist *mat[T]
	rest    []dense[T]
	decW    *mat[T]
	decB    []T

	pool sync.Pool // *scratch[T]
}

// build compiles the lowered spec into a tier body; conv maps float64
// storage to the tier's (the identity for f64, so unfused layers stay views
// of the model's weights).
func build[T num](lm *core.LoweredModel, k kernels[T], conv func([]float64) []T) *body[T] {
	m := func(x *tensor.Matrix) *mat[T] { return &mat[T]{Rows: x.Rows, Cols: x.Cols, Data: conv(x.Data)} }
	layers := func(ls []core.LoweredDense) []dense[T] {
		out := make([]dense[T], len(ls))
		for i, d := range ls {
			out[i] = dense[T]{w: m(d.W), b: conv(d.B), act: d.Act}
		}
		return out
	}
	b := &body[T]{k: k, inDim: lm.InDim, xpDim: lm.XpDim, tauCount: lm.TauCount, accel: lm.Accel, vae: layers(lm.VAE)}
	if lm.Accel {
		b.trunk = layers(lm.Trunk)
		for _, h := range lm.Heads {
			b.heads = append(b.heads, m(h))
		}
		b.headBias = conv(lm.HeadBias)
	} else {
		b.wx, b.perDist, b.rest = m(lm.WX), m(lm.PerDist), layers(lm.Rest)
		b.decW, b.decB = m(lm.DecW), conv(lm.DecB)
	}
	b.pool.New = func() any { return &scratch[T]{} }
	return b
}

// finite reports whether every compiled weight and bias is finite.
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
	for _, m := range []*mat[T]{b.wx, b.perDist, b.decW} {
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
type scratch[T num] struct {
	x      *mat[T] // input batch in the tier's type
	a, b   *mat[T] // ping-pong chain buffers (B rows)
	xp     *mat[T] // concatenated x′
	pre    *mat[T] // per-distance pre-activations (B × τcount)
	za, zb *mat[T] // standard-path chain buffers (B·τcount rows)
}

// ensure returns *slot resized to rows×cols, reallocating only on growth.
// Contents are undefined; callers overwrite fully.
func ensure[T num](slot **mat[T], rows, cols int) *mat[T] {
	m := *slot
	if m == nil || cap(m.Data) < rows*cols {
		m = &mat[T]{Data: make([]T, rows*cols)}
		*slot = m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// layer runs d on x into whichever of the two slots does not hold x.
func (b *body[T]) layer(d *dense[T], x *mat[T], s1, s2 **mat[T]) *mat[T] {
	if *s1 == x {
		s1 = s2
	}
	out := ensure(s1, x.Rows, d.w.Rows)
	b.k.abt(x, d.w, out, false)
	for e := 0; e < out.Rows; e++ {
		row := out.row(e)
		for o, v := range d.b {
			row[o] += v
		}
	}
	activate(d.act, out.Data)
	return out
}

// activate applies an activation kind in place, matching
// nn.Activation.Apply exactly at float64.
func activate[T num](kind nn.ActKind, data []T) {
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

// forward is the one fused forward both tiers run.
func (b *body[T]) forward(xs *tensor.Matrix) *tensor.Matrix {
	n, t := xs.Rows, b.tauCount
	s := b.pool.Get().(*scratch[T])
	defer b.pool.Put(s)

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
			copy(xp.row(e)[:b.inDim], x.row(e))
			copy(xp.row(e)[b.inDim:], h.row(e))
		}
	}

	pre := ensure(&s.pre, n, t)
	if b.accel {
		h := xp
		for j := range b.trunk {
			h = b.layer(&b.trunk[j], h, &s.a, &s.b)
			b.k.abt(h, b.heads[j], pre, j > 0)
		}
		for e := 0; e < n; e++ {
			row := pre.row(e)
			for i, v := range b.headBias {
				row[i] += v
			}
		}
	} else {
		u := ensure(&s.a, n, b.wx.Rows)
		b.k.abt(xp, b.wx, u, false)
		z := ensure(&s.za, n*t, b.wx.Rows)
		for e := 0; e < n; e++ {
			ue := u.row(e)
			for i := 0; i < t; i++ {
				row, pd := z.row(e*t+i), b.perDist.row(i)
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
			row := pre.row(e)
			for i := range row {
				row[i] = b.k.dot(b.decW.row(i), z.row(e*t+i)) + b.decB[i]
			}
		}
	}

	// ReLU clamp, then float64 prefix sums per row.
	out := tensor.NewMatrix(n, t)
	for e := 0; e < n; e++ {
		orow := out.Row(e)
		var sum float64
		for i, v := range pre.row(e) {
			if v > 0 {
				sum += float64(v)
			}
			orow[i] = sum
		}
	}
	return out
}
