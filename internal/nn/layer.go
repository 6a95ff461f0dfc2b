package nn

import (
	"math"
	"math/rand"

	"cardnet/internal/tensor"
)

// Param is one learnable parameter tensor, flattened. Grad holds the
// gradient the optimizer consumes, one value per Value, and stays nil until
// training first needs it: NewAdam and Ctx.AddGradsInto allocate it, and so
// does LSTM.Backward, which accumulates into it directly. So a model loaded
// only to serve holds its weights once, with no gradient buffers beside
// them. Trainers add each step's context gradients into Grad
// (Ctx.AddGradsInto), and Step zeroes it.
type Param struct {
	Name  string
	Value []float64
	Grad  []float64
}

// newParam allocates a named parameter of n values, without a gradient.
func newParam(name string, n int) *Param {
	return &Param{Name: name, Value: make([]float64, n)}
}

// ensureGrad gives p a zeroed gradient buffer unless it has one, and
// returns the buffer.
func (p *Param) ensureGrad() []float64 {
	if p.Grad == nil {
		p.Grad = make([]float64, len(p.Value))
	}
	return p.Grad
}

// Layer is one differentiable block. Forward consumes a batch (rows =
// examples) and returns the output batch; Backward consumes dL/dOutput and
// returns dL/dInput. A layer holds only its parameters: a training forward
// (train=true) records what Backward needs in c, and Backward accumulates
// parameter gradients into c's buffers. Inference (train=false) writes
// nothing into c.
type Layer interface {
	Forward(c *Ctx, x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(c *Ctx, grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	OutDim(inDim int) int
}

// Dense is a fully connected layer: y = x·Wᵀ + b with W of shape Out×In.
type Dense struct {
	In, Out int
	W, B    *Param

	// wm is a reusable Out×In matrix header over W.Value, valid for the
	// layer's lifetime because parameter updates and snapshot restores write
	// into the slice in place. Forward and Backward hand out &wm instead of
	// building a header per call (one that would escape to the heap through
	// the kernel call).
	wm tensor.Matrix
}

// NewDense returns a Dense layer with Glorot-uniform weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, W: newParam("W", in*out), B: newParam("b", out)}
	tensor.GlorotUniform(rng, d.W.Value, in, out)
	d.wm = tensor.Matrix{Rows: out, Cols: in, Data: d.W.Value}
	return d
}

// Forward computes x·Wᵀ + b, caching the input in c for Backward in
// training mode.
func (d *Dense) Forward(c *Ctx, x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		c.put(d, x)
	}
	y := tensor.PMatMulABT(x, &d.wm, nil)
	tensor.AddBias(y, d.B.Value)
	return y
}

// Backward accumulates dW = dYᵀ·X and dB = colsums(dY) into c's gradient
// buffers and returns dX = dY·W.
func (d *Dense) Backward(c *Ctx, grad *tensor.Matrix) *tensor.Matrix {
	x := c.get(d).(*tensor.Matrix)
	gb := c.GradOf(d.B)
	// dW (Out×In) += gradᵀ (Out×batch) · x (batch×In)
	gw := &tensor.Matrix{Rows: d.Out, Cols: d.In, Data: c.GradOf(d.W)}
	tensor.PMatMulATBAdd(grad, x, gw)
	for n := 0; n < grad.Rows; n++ {
		tensor.Axpy(1, grad.Row(n), gb)
	}
	return tensor.PMatMul(grad, &d.wm, nil)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutDim reports the layer output width.
func (d *Dense) OutDim(int) int { return d.Out }

// Activation kinds supported by the framework.
type ActKind int

// Supported activation functions.
const (
	ReLU ActKind = iota
	ELU
	Sigmoid
	Tanh
	Identity
)

// Activation is an element-wise nonlinearity layer.
type Activation struct {
	Kind ActKind
}

// NewActivation returns an element-wise activation layer.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

// Apply evaluates the activation on one scalar.
func (a *Activation) Apply(v float64) float64 {
	switch a.Kind {
	case ReLU:
		if v < 0 {
			return 0
		}
		return v
	case ELU:
		if v < 0 {
			return math.Exp(v) - 1
		}
		return v
	case Sigmoid:
		return 1 / (1 + math.Exp(-v))
	case Tanh:
		return math.Tanh(v)
	default:
		return v
	}
}

// deriv returns dy/dx given both the input x and output y values.
func (a *Activation) deriv(x, y float64) float64 {
	switch a.Kind {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case ELU:
		if x < 0 {
			return y + 1 // d/dx (e^x - 1) = e^x = y+1
		}
		return 1
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// actCache pairs the input/output matrices one training forward recorded.
type actCache struct {
	x, y *tensor.Matrix
}

// Forward applies the activation element-wise, caching input and output
// in c for Backward in training mode.
func (a *Activation) Forward(c *Ctx, x *tensor.Matrix, train bool) *tensor.Matrix {
	y := tensor.NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = a.Apply(v)
	}
	if train {
		c.put(a, actCache{x: x, y: y})
	}
	return y
}

// Backward multiplies the upstream gradient by the activation derivative.
func (a *Activation) Backward(c *Ctx, grad *tensor.Matrix) *tensor.Matrix {
	cache := c.get(a).(actCache)
	out := tensor.NewMatrix(grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		out.Data[i] = g * a.deriv(cache.x.Data[i], cache.y.Data[i])
	}
	return out
}

// Params reports no learnables.
func (a *Activation) Params() []*Param { return nil }

// OutDim reports the unchanged width.
func (a *Activation) OutDim(in int) int { return in }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewMLP builds Dense+activation stacks: dims = [in, h1, ..., out]. The
// final layer gets outAct (use Identity for linear regression heads).
func NewMLP(rng *rand.Rand, dims []int, hidden, outAct ActKind) *Sequential {
	s := &Sequential{}
	for i := 0; i+1 < len(dims); i++ {
		s.Layers = append(s.Layers, NewDense(rng, dims[i], dims[i+1]))
		act := hidden
		if i+2 == len(dims) {
			act = outAct
		}
		if act != Identity {
			s.Layers = append(s.Layers, NewActivation(act))
		}
	}
	return s
}

// Forward runs all layers in order.
func (s *Sequential) Forward(c *Ctx, x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(c, x, train)
	}
	return x
}

// Backward runs all layers in reverse.
func (s *Sequential) Backward(c *Ctx, grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(c, grad)
	}
	return grad
}

// Params concatenates all layer parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutDim chains layer widths.
func (s *Sequential) OutDim(in int) int {
	for _, l := range s.Layers {
		in = l.OutDim(in)
	}
	return in
}

// Softmax computes a row-wise softmax of logits into a fresh matrix.
func Softmax(logits *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		o := out.Row(i)
		for j, v := range row {
			o[j] = math.Exp(v - m)
			sum += o[j]
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out
}
