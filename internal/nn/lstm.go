package nn

import (
	"math"
	"math/rand"

	"cardnet/internal/tensor"
)

// LSTM is a single-direction long short-term memory cell operating on one
// sequence at a time (batch size 1), with full backpropagation through time.
// It is the substrate of the DL-BiLSTM baseline, which replaces the
// edit-distance feature extraction with a character-level recurrent encoder
// (paper Section 9.1.2).
//
// Gate layout in the stacked parameters: [input; forget; cell; output], each
// a Hidden-sized block.
type LSTM struct {
	In, Hidden int
	Wx         *Param // 4H×In, input projection
	Wh         *Param // 4H×H, recurrent projection
	B          *Param // 4H
}

// NewLSTM initializes an LSTM with Glorot weights and forget-gate bias 1
// (the standard trick that eases gradient flow early in training).
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{In: in, Hidden: hidden,
		Wx: newParam("Wx", 4*hidden*in),
		Wh: newParam("Wh", 4*hidden*hidden),
		B:  newParam("b", 4*hidden)}
	tensor.GlorotUniform(rng, l.Wx.Value, in, 4*hidden)
	tensor.GlorotUniform(rng, l.Wh.Value, hidden, 4*hidden)
	for i := l.Hidden; i < 2*l.Hidden; i++ {
		l.B.Value[i] = 1
	}
	return l
}

// Params returns the learnables.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// lstmStep caches one timestep's tensors for BPTT.
type lstmStep struct {
	x          []float64
	i, f, g, o []float64 // post-activation gates
	c, h       []float64 // new cell and hidden
	cPrev      []float64
}

// LSTMTape holds the forward caches of one sequence.
type LSTMTape struct {
	steps []lstmStep
}

// H returns the hidden state after step t (nil-safe copy not taken).
func (t *LSTMTape) H(i int) []float64 { return t.steps[i].h }

// Len returns the number of steps.
func (t *LSTMTape) Len() int { return len(t.steps) }

// Forward runs the cell over a sequence of input vectors, returning the
// final hidden state and the tape for Backward. Empty sequences return a
// zero state and an empty tape.
func (l *LSTM) Forward(seq [][]float64) ([]float64, *LSTMTape) {
	h := make([]float64, l.Hidden)
	c := make([]float64, l.Hidden)
	tape := &LSTMTape{}
	for _, x := range seq {
		st := lstmStep{x: x, cPrev: c}
		z := make([]float64, 4*l.Hidden)
		// z = Wx·x + Wh·h + b
		for r := 0; r < 4*l.Hidden; r++ {
			s := l.B.Value[r]
			wxr := l.Wx.Value[r*l.In : (r+1)*l.In]
			for j, xv := range x {
				s += wxr[j] * xv
			}
			whr := l.Wh.Value[r*l.Hidden : (r+1)*l.Hidden]
			for j, hv := range h {
				s += whr[j] * hv
			}
			z[r] = s
		}
		H := l.Hidden
		st.i = sigmoidVec(z[0:H])
		st.f = sigmoidVec(z[H : 2*H])
		st.g = tanhVec(z[2*H : 3*H])
		st.o = sigmoidVec(z[3*H : 4*H])
		st.c = make([]float64, H)
		st.h = make([]float64, H)
		for j := 0; j < H; j++ {
			st.c[j] = st.f[j]*c[j] + st.i[j]*st.g[j]
			st.h[j] = st.o[j] * math.Tanh(st.c[j])
		}
		c, h = st.c, st.h
		tape.steps = append(tape.steps, st)
	}
	out := make([]float64, l.Hidden)
	copy(out, h)
	return out, tape
}

// Backward runs BPTT given dL/dh at every step (dhs[t] may be nil for steps
// without direct loss) and accumulates parameter gradients into Param.Grad,
// allocating any still missing. It returns dL/dx per step for upstream
// layers (e.g. a character-embedding table).
func (l *LSTM) Backward(tape *LSTMTape, dhs [][]float64) [][]float64 {
	for _, p := range l.Params() {
		p.ensureGrad()
	}
	H := l.Hidden
	dxs := make([][]float64, tape.Len())
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	for t := tape.Len() - 1; t >= 0; t-- {
		st := &tape.steps[t]
		dh := make([]float64, H)
		copy(dh, dhNext)
		if t < len(dhs) && dhs[t] != nil {
			tensor.Axpy(1, dhs[t], dh)
		}
		dz := make([]float64, 4*H)
		dcPrev := make([]float64, H)
		for j := 0; j < H; j++ {
			tc := math.Tanh(st.c[j])
			do := dh[j] * tc
			dc := dh[j]*st.o[j]*(1-tc*tc) + dcNext[j]
			di := dc * st.g[j]
			df := dc * st.cPrev[j]
			dg := dc * st.i[j]
			dcPrev[j] = dc * st.f[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*H+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*H+j] = do * st.o[j] * (1 - st.o[j])
		}
		// Parameter and input gradients.
		dx := make([]float64, l.In)
		var hPrev []float64
		if t > 0 {
			hPrev = tape.steps[t-1].h
		}
		for r := 0; r < 4*H; r++ {
			g := dz[r]
			if g == 0 {
				continue
			}
			l.B.Grad[r] += g
			wxg := l.Wx.Grad[r*l.In : (r+1)*l.In]
			wxr := l.Wx.Value[r*l.In : (r+1)*l.In]
			for j, xv := range st.x {
				wxg[j] += g * xv
				dx[j] += g * wxr[j]
			}
			if hPrev != nil {
				whg := l.Wh.Grad[r*H : (r+1)*H]
				for j, hv := range hPrev {
					whg[j] += g * hv
				}
			}
		}
		// dh for the previous step: Whᵀ·dz.
		for j := 0; j < H; j++ {
			dhNext[j] = 0
		}
		if t > 0 {
			for r := 0; r < 4*H; r++ {
				g := dz[r]
				if g == 0 {
					continue
				}
				whr := l.Wh.Value[r*H : (r+1)*H]
				for j := 0; j < H; j++ {
					dhNext[j] += g * whr[j]
				}
			}
		}
		dcNext = dcPrev
		dxs[t] = dx
	}
	return dxs
}

// BiLSTM runs a forward and a backward LSTM over a sequence and
// concatenates their final hidden states into a 2·Hidden representation.
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM builds the two directions.
func NewBiLSTM(rng *rand.Rand, in, hidden int) *BiLSTM {
	return &BiLSTM{Fwd: NewLSTM(rng, in, hidden), Bwd: NewLSTM(rng, in, hidden)}
}

// Params returns both directions' learnables.
func (b *BiLSTM) Params() []*Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// OutDim is the representation width.
func (b *BiLSTM) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// BiTape caches both directions' forward passes.
type BiTape struct {
	fwd, bwd *LSTMTape
	seqLen   int
}

// Forward returns [h_fwd(final); h_bwd(final)] and the tape.
func (b *BiLSTM) Forward(seq [][]float64) ([]float64, *BiTape) {
	hF, tF := b.Fwd.Forward(seq)
	rev := make([][]float64, len(seq))
	for i := range seq {
		rev[i] = seq[len(seq)-1-i]
	}
	hB, tB := b.Bwd.Forward(rev)
	return tensor.Concat(hF, hB), &BiTape{fwd: tF, bwd: tB, seqLen: len(seq)}
}

// Backward takes dL/d[h_fwd;h_bwd] and accumulates gradients, returning
// dL/dx per original sequence position (both directions summed).
func (b *BiLSTM) Backward(tape *BiTape, dout []float64) [][]float64 {
	n := tape.seqLen
	if n == 0 {
		return nil
	}
	hF := b.Fwd.Hidden
	dhsF := make([][]float64, n)
	dhsF[n-1] = dout[:hF]
	dhsB := make([][]float64, n)
	dhsB[n-1] = dout[hF:]
	dxF := b.Fwd.Backward(tape.fwd, dhsF)
	dxB := b.Bwd.Backward(tape.bwd, dhsB)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		dx := make([]float64, len(dxF[i]))
		copy(dx, dxF[i])
		tensor.Axpy(1, dxB[n-1-i], dx)
		out[i] = dx
	}
	return out
}

func sigmoidVec(z []float64) []float64 {
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

func tanhVec(z []float64) []float64 {
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = math.Tanh(v)
	}
	return out
}
