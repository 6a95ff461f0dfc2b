package nn

import "cardnet/internal/tensor"

// Ctx is a per-goroutine training context: it owns the activation caches a
// training forward records for its backward pass, the gradient buffers that
// backward accumulates into, and reusable scratch matrices. Layers hold only
// their parameters, so every training pass brings a Ctx — a sequential
// trainer is one shard with one context — and concurrent shards share one set
// of layer objects (weights are only read) without sharing any mutable state.
// After the shards join, their gradients are added into the real Param.Grad
// buffers in a fixed shard order (AddGradsInto), which also empties them, so
// a trainer keeps one context per shard for a whole run.
//
// Inference (train=false) records no caches or gradients: plain layer
// forwards take a nil context, and only a forward that draws on Scratch
// buffers (the fused CardNet-A encoder's scatter target) needs one.
type Ctx struct {
	caches  map[any]any
	grads   map[*Param][]float64
	scratch map[scratchKey]*tensor.Matrix
}

// NewCtx returns an empty context.
func NewCtx() *Ctx {
	return &Ctx{
		caches:  make(map[any]any),
		grads:   make(map[*Param][]float64),
		scratch: make(map[scratchKey]*tensor.Matrix),
	}
}

// put stores a layer's activation cache under the layer's identity.
func (c *Ctx) put(layer, cache any) { c.caches[layer] = cache }

// get fetches a layer's activation cache (nil if the layer never ran a
// training forward through this context).
func (c *Ctx) get(layer any) any { return c.caches[layer] }

// scratchKey identifies one Scratch buffer: the owning layer (or any other
// comparable identity) plus a tag distinguishing the buffers one owner needs.
// Scratch buffers live in their own typed map — separate from the activation
// caches — so lookups never box the key into an interface (the map[any]any
// would allocate per access).
type scratchKey struct {
	owner any
	tag   string
}

// Scratch returns a rows×cols matrix cached in the context under
// (owner, tag), allocating on first use and reusing (growing when needed) the
// backing array afterwards. The contents are NOT zeroed on reuse — callers
// must overwrite every element they read.
//
// A trainer keeps one context per shard for a whole run, so the fused-encoder
// transients that live here (the scatter target z, backward's dzj) are
// allocated once per run rather than once per step.
func (c *Ctx) Scratch(owner any, tag string, rows, cols int) *tensor.Matrix {
	key := scratchKey{owner: owner, tag: tag}
	if m, ok := c.scratch[key]; ok && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	m := tensor.NewMatrix(rows, cols)
	c.scratch[key] = m
	return m
}

// GradOf returns the gradient buffer for p in this context, allocating a
// zeroed one on first use.
func (c *Ctx) GradOf(p *Param) []float64 {
	g, ok := c.grads[p]
	if !ok {
		g = make([]float64, len(p.Value))
		c.grads[p] = g
	}
	return g
}

// AddGradsInto adds this context's accumulated gradients into the real
// Param.Grad buffers for the given parameters, allocating any still
// missing, and zeroes its own, ready for the next step. Callers reduce
// worker contexts in a fixed order (worker 0, 1, 2, …) so the summation
// order — and therefore every trained bit — depends only on the worker
// count, never on goroutine scheduling. A new buffer starts at +0 and the
// optimizer leaves Param.Grad at +0 after each step, so with one context
// Grad = 0 + g holds exactly the bits an in-place accumulation would.
func (c *Ctx) AddGradsInto(params []*Param) {
	for _, p := range params {
		g, ok := c.grads[p]
		if !ok {
			continue
		}
		tensor.Axpy(1, g, p.ensureGrad()) // g·1 is exactly g, so this is Grad += g
		clear(g)
	}
}
