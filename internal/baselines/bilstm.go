package baselines

import (
	"math"
	"math/rand"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// BiLSTMCard is DL-BiLSTM: for edit-distance data, the binary feature
// extraction is replaced by a character-level bidirectional LSTM encoder
// whose representation feeds τmax+1 non-negative per-distance heads; the
// estimate is the prefix sum, mirroring CardNet's incremental structure
// (paper Section 9.1.2 evaluates this variant on the ED datasets).
type BiLSTMCard struct {
	TauMax  int
	EmbDim  int
	Hidden  int
	MaxLen  int // strings are truncated for bounded BPTT
	Fit_    fitCfg
	TauTop  int
	alpha   map[byte]int
	emb     *nn.Param // (|Σ|+1)×EmbDim, last row = out-of-alphabet
	rnn     *nn.BiLSTM
	head    *nn.Sequential // 2·Hidden → ... → TauMax+1 (linear)
	trained bool
}

// NewBiLSTM builds the model over the lowercase alphabet.
func NewBiLSTM(tauMax int) *BiLSTMCard {
	m := &BiLSTMCard{TauMax: tauMax, EmbDim: 8, Hidden: 24, MaxLen: 24,
		Fit_: defaultFit(), alpha: map[byte]int{}}
	// Sequences are processed one at a time; accumulate small batches so the
	// optimizer takes enough steps even on modest workloads.
	m.Fit_.Batch = 8
	for c := byte('a'); c <= 'z'; c++ {
		m.alpha[c] = int(c - 'a')
	}
	return m
}

// Name identifies the model.
func (m *BiLSTMCard) Name() string { return "DL-BiLSTM" }

func (m *BiLSTMCard) vocab() int { return len(m.alpha) + 1 }

// embed maps a string to its embedding sequence and the row indices used
// (for the embedding gradient).
func (m *BiLSTMCard) embed(s string) ([][]float64, []int) {
	n := len(s)
	if n > m.MaxLen {
		n = m.MaxLen
	}
	seq := make([][]float64, n)
	rows := make([]int, n)
	for i := 0; i < n; i++ {
		r, ok := m.alpha[s[i]]
		if !ok {
			r = m.vocab() - 1
		}
		rows[i] = r
		seq[i] = m.emb.Value[r*m.EmbDim : (r+1)*m.EmbDim]
	}
	return seq, rows
}

// forward returns the per-distance increments (post-ReLU). In training mode
// the head's activation caches go to c and the tape holds the LSTM's, so
// backward can follow.
type bilstmFwd struct {
	seqRows []int
	tape    *nn.BiTape
	h       []float64
	pre     []float64
	inc     []float64
}

func (m *BiLSTMCard) forward(c *nn.Ctx, s string, train bool) *bilstmFwd {
	f := &bilstmFwd{}
	var seq [][]float64
	seq, f.seqRows = m.embed(s)
	f.h, f.tape = m.rnn.Forward(seq)
	hm := &tensor.Matrix{Rows: 1, Cols: len(f.h), Data: f.h}
	out := m.head.Forward(c, hm, train)
	f.pre = out.Row(0)
	f.inc = make([]float64, len(f.pre))
	for i, v := range f.pre {
		if v > 0 {
			f.inc[i] = v
		}
	}
	return f
}

// FitStrings trains on raw query strings with cumulative labels (one row per
// query, columns τ = 0..tauTop).
func (m *BiLSTMCard) FitStrings(queries []string, labels *tensor.Matrix, tauTop int) {
	if len(queries) == 0 {
		return
	}
	if tauTop > m.TauMax {
		tauTop = m.TauMax
	}
	m.TauTop = tauTop
	rng := rand.New(rand.NewSource(m.Fit_.Seed))
	m.emb = &nn.Param{Name: "charEmb",
		Value: make([]float64, m.vocab()*m.EmbDim),
		Grad:  make([]float64, m.vocab()*m.EmbDim)}
	tensor.RandNormal(rng, m.emb.Value, 0, 0.3)
	m.rnn = nn.NewBiLSTM(rng, m.EmbDim, m.Hidden)
	m.head = nn.NewMLP(rng, []int{2 * m.Hidden, 48, m.TauMax + 1}, nn.ReLU, nn.Identity)

	params := []*nn.Param{m.emb}
	params = append(params, m.rnn.Params()...)
	params = append(params, m.head.Params()...)
	opt := nn.NewAdam(params, m.Fit_.LR)
	ctx := nn.NewCtx() // the head's gradients; AddGradsInto empties it per step

	perm := rng.Perm(len(queries))
	for epoch := 0; epoch < m.Fit_.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for bi, qi := range perm {
			f := m.forward(ctx, queries[qi], true)
			lrow := labels.Row(qi)
			// MSLE on the cumulative estimate at every τ, tail-summed into
			// per-increment gradients (as in CardNet's trainBatch).
			dinc := make([]float64, m.TauMax+1)
			var cum float64
			cums := make([]float64, tauTop+1)
			for i := 0; i <= tauTop; i++ {
				cum += f.inc[i]
				cums[i] = cum
			}
			for tau := 0; tau <= tauTop; tau++ {
				p := cums[tau]
				g := 2 * (math.Log1p(p) - math.Log1p(lrow[tau])) / (1 + p) / float64(tauTop+1)
				for i := 0; i <= tau; i++ {
					dinc[i] += g
				}
			}
			// ReLU gate, then head → BiLSTM → embeddings.
			dpre := tensor.NewMatrix(1, m.TauMax+1)
			for i := range dinc {
				if f.pre[i] > 0 {
					dpre.Data[i] = dinc[i]
				}
			}
			dh := m.head.Backward(ctx, dpre)
			dxs := m.rnn.Backward(f.tape, dh.Row(0))
			for t, r := range f.seqRows {
				tensor.Axpy(1, dxs[t], m.emb.Grad[r*m.EmbDim:(r+1)*m.EmbDim])
			}
			if (bi+1)%m.Fit_.Batch == 0 || bi == len(perm)-1 {
				ctx.AddGradsInto(params)
				nn.ClipGradNorm(params, 5)
				opt.Step()
			}
		}
	}
	m.trained = true
}

// EstimateString returns the prefix-sum estimate at τ. Monotone in τ by the
// same argument as CardNet (non-negative deterministic increments).
func (m *BiLSTMCard) EstimateString(s string, tau int) float64 {
	if !m.trained {
		return 0
	}
	if tau < 0 {
		return 0
	}
	if tau > m.TauMax {
		tau = m.TauMax
	}
	f := m.forward(nil, s, false)
	var sum float64
	for i := 0; i <= tau; i++ {
		sum += f.inc[i]
	}
	return sum
}

// SizeBytes reports the serialized parameter size.
func (m *BiLSTMCard) SizeBytes() int {
	if !m.trained {
		return 0
	}
	params := []*nn.Param{m.emb}
	params = append(params, m.rnn.Params()...)
	params = append(params, m.head.Params()...)
	return nn.ParamBytes(params)
}
