package nn

import (
	"math"
	"math/rand"
	"testing"

	"cardnet/internal/tensor"
)

func randSeq(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestLSTMForwardShapeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(rng, 3, 5)
	seq := randSeq(rng, 4, 3)
	h1, tape := l.Forward(seq)
	h2, _ := l.Forward(seq)
	if len(h1) != 5 || tape.Len() != 4 {
		t.Fatalf("shapes wrong: |h|=%d steps=%d", len(h1), tape.Len())
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("forward must be deterministic")
		}
	}
	if len(tape.H(2)) != 5 {
		t.Fatal("tape hidden state wrong size")
	}
}

func TestLSTMEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(rng, 3, 4)
	h, tape := l.Forward(nil)
	if len(h) != 4 || tape.Len() != 0 {
		t.Fatal("empty sequence must give zero-length tape and zero state")
	}
	for _, v := range h {
		if v != 0 {
			t.Fatal("empty-sequence hidden state must be zero")
		}
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, 2, 3)
	for i := l.Hidden; i < 2*l.Hidden; i++ {
		if l.B.Value[i] != 1 {
			t.Fatal("forget bias must initialize to 1")
		}
	}
	if l.B.Value[0] != 0 {
		t.Fatal("other biases must initialize to 0")
	}
}

// Gradient check of the full BPTT against central differences on a loss
// attached to the final hidden state.
func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, 3, 4)
	seq := randSeq(rng, 5, 3)
	target := make([]float64, 4)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		h, _ := l.Forward(seq)
		return MSE(h, target)
	}
	h, tape := l.Forward(seq)
	dh := make([]float64, 4)
	for i := range dh {
		dh[i] = MSEGrad(h[i], target[i], len(h))
	}
	zeroGrads(l.Params())
	dhs := make([][]float64, tape.Len())
	dhs[tape.Len()-1] = dh
	dxs := l.Backward(tape, dhs)

	const eps = 1e-5
	for _, p := range l.Params() {
		for _, idx := range []int{0, len(p.Value) / 3, len(p.Value) - 1} {
			orig := p.Value[idx]
			p.Value[idx] = orig + eps
			up := loss()
			p.Value[idx] = orig - eps
			down := loss()
			p.Value[idx] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-p.Grad[idx]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, idx, p.Grad[idx], num)
			}
		}
	}
	// Input gradient check on one element.
	orig := seq[1][2]
	seq[1][2] = orig + eps
	up := loss()
	seq[1][2] = orig - eps
	down := loss()
	seq[1][2] = orig
	num := (up - down) / (2 * eps)
	if math.Abs(num-dxs[1][2]) > 1e-4*(1+math.Abs(num)) {
		t.Fatalf("dx[1][2]: analytic %v numeric %v", dxs[1][2], num)
	}
}

func TestBiLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBiLSTM(rng, 2, 3)
	if b.OutDim() != 6 {
		t.Fatalf("OutDim=%d", b.OutDim())
	}
	seq := randSeq(rng, 4, 2)
	target := make([]float64, 6)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		h, _ := b.Forward(seq)
		return MSE(h, target)
	}
	h, tape := b.Forward(seq)
	dh := make([]float64, 6)
	for i := range dh {
		dh[i] = MSEGrad(h[i], target[i], len(h))
	}
	zeroGrads(b.Params())
	dxs := b.Backward(tape, dh)

	const eps = 1e-5
	for pi, p := range b.Params() {
		idx := len(p.Value) / 2
		orig := p.Value[idx]
		p.Value[idx] = orig + eps
		up := loss()
		p.Value[idx] = orig - eps
		down := loss()
		p.Value[idx] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-p.Grad[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d %s[%d]: analytic %v numeric %v", pi, p.Name, idx, p.Grad[idx], num)
		}
	}
	// Input gradients combine both directions.
	orig := seq[2][0]
	seq[2][0] = orig + eps
	up := loss()
	seq[2][0] = orig - eps
	down := loss()
	seq[2][0] = orig
	num := (up - down) / (2 * eps)
	if math.Abs(num-dxs[2][0]) > 1e-4*(1+math.Abs(num)) {
		t.Fatalf("dx: analytic %v numeric %v", dxs[2][0], num)
	}
}

func TestBiLSTMEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewBiLSTM(rng, 2, 3)
	h, tape := b.Forward(nil)
	if len(h) != 6 {
		t.Fatal("empty-sequence representation must still have OutDim entries")
	}
	if out := b.Backward(tape, make([]float64, 6)); out != nil {
		t.Fatal("backward on empty tape must be nil")
	}
}

// An LSTM must be able to learn a simple order-sensitive task that a
// bag-of-inputs model cannot: predict whether the larger input came last.
func TestLSTMLearnsOrderSensitiveTask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLSTM(rng, 1, 8)
	head := NewDense(rng, 8, 1)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(params, 0.01)

	sample := func() ([][]float64, float64) {
		a, b := rng.Float64(), rng.Float64()
		seq := [][]float64{{a}, {b}}
		if b > a {
			return seq, 1
		}
		return seq, 0
	}
	c := NewCtx()
	var lastLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		seq, y := sample()
		h, tape := l.Forward(seq)
		pred := head.Forward(c, matFromVec(h), true).Data[0]
		lastLoss = (pred - y) * (pred - y)
		dh := head.Backward(c, matFromVec([]float64{2 * (pred - y)}))
		dhs := make([][]float64, tape.Len())
		dhs[tape.Len()-1] = dh.Row(0)
		l.Backward(tape, dhs)
		c.AddGradsInto(head.Params())
		opt.Step()
	}
	// Evaluate accuracy on fresh samples.
	correct := 0
	for i := 0; i < 200; i++ {
		seq, y := sample()
		h, _ := l.Forward(seq)
		pred := head.Forward(nil, matFromVec(h), false).Data[0]
		if (pred > 0.5) == (y == 1) {
			correct++
		}
	}
	if correct < 170 {
		t.Fatalf("LSTM failed order task: %d/200 correct (last loss %v)", correct, lastLoss)
	}
}

// matFromVec wraps a vector as a 1×n matrix.
func matFromVec(v []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: 1, Cols: len(v), Data: v}
}
