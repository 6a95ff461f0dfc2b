package baselines

import (
	"math"
	"math/rand"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// RMI is DL-RMI (Kraska et al.'s recursive-model index adapted to
// regression, as the paper does): a root FNN predicts a coarse log
// cardinality, which routes each example to one of M leaf FNNs trained only
// on the examples routed there. The staged specialization gives good
// accuracy but the paper notes mispredictions near region boundaries — the
// behaviour this implementation reproduces.
type RMI struct {
	TauMax int
	Leaves int
	Hidden []int
	Fit_   fitCfg

	root     *nn.Sequential
	leaf     []*nn.Sequential
	minL     float64 // routing range in log space
	maxL     float64
	inDim    int
	fallback float64
}

// NewRMI builds a two-stage RMI with 4 leaves.
func NewRMI(tauMax int) *RMI {
	return &RMI{TauMax: tauMax, Leaves: 4, Hidden: []int{48, 32}, Fit_: defaultFit()}
}

// Name identifies the model.
func (m *RMI) Name() string { return "DL-RMI" }

// route maps a root prediction to a leaf index.
func (m *RMI) route(rootPred float64) int {
	if m.maxL <= m.minL {
		return 0
	}
	f := (rootPred - m.minL) / (m.maxL - m.minL)
	k := int(f * float64(m.Leaves))
	if k < 0 {
		k = 0
	}
	if k >= m.Leaves {
		k = m.Leaves - 1
	}
	return k
}

// Fit trains the root on all data, then each leaf on its routed share.
func (m *RMI) Fit(train, _ *core.TrainSet) {
	x, _, y := flatten(train, m.TauMax)
	if len(x) == 0 {
		return
	}
	m.inDim = len(x[0])
	ylog := log1pTargets(y)
	m.minL, m.maxL = math.Inf(1), math.Inf(-1)
	for _, v := range ylog {
		m.minL = math.Min(m.minL, v)
		m.maxL = math.Max(m.maxL, v)
		m.fallback += v
	}
	m.fallback /= float64(len(ylog))

	rng := rand.New(rand.NewSource(m.Fit_.Seed))
	dims := append([]int{m.inDim}, m.Hidden...)
	dims = append(dims, 1)
	m.root = nn.NewMLP(rng, dims, nn.ReLU, nn.Identity)
	c := m.Fit_
	FitRegressor(m.root, x, ylog, c.Epochs, c.Batch, c.LR, rand.New(rand.NewSource(c.Seed)))

	// Route and train leaves.
	routedX := make([][][]float64, m.Leaves)
	routedY := make([][]float64, m.Leaves)
	for i := range x {
		xm := &tensor.Matrix{Rows: 1, Cols: m.inDim, Data: x[i]}
		k := m.route(m.root.Forward(nil, xm, false).Data[0])
		routedX[k] = append(routedX[k], x[i])
		routedY[k] = append(routedY[k], ylog[i])
	}
	m.leaf = make([]*nn.Sequential, m.Leaves)
	for k := 0; k < m.Leaves; k++ {
		if len(routedX[k]) < 8 {
			continue // too few examples: fall back to the root
		}
		ldims := append([]int{m.inDim}, m.Hidden...)
		ldims = append(ldims, 1)
		m.leaf[k] = nn.NewMLP(rng, ldims, nn.ReLU, nn.Identity)
		FitRegressor(m.leaf[k], routedX[k], routedY[k], c.Epochs, c.Batch, c.LR, rand.New(rand.NewSource(c.Seed)))
	}
}

// Estimate routes through the root then evaluates the leaf.
func (m *RMI) Estimate(x []float64, tau int) float64 {
	if m.root == nil {
		return 0
	}
	row := make([]float64, len(x)+1)
	copy(row, x)
	if m.TauMax > 0 {
		row[len(x)] = float64(tau) / float64(m.TauMax)
	}
	xm := &tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	rootPred := m.root.Forward(nil, xm, false).Data[0]
	k := m.route(rootPred)
	if m.leaf[k] == nil {
		return fromLog(rootPred)
	}
	return fromLog(m.leaf[k].Forward(nil, xm, false).Data[0])
}

// SizeBytes sums root and leaf parameters.
func (m *RMI) SizeBytes() int {
	if m.root == nil {
		return 0
	}
	n := nn.ParamBytes(m.root.Params())
	for _, l := range m.leaf {
		if l != nil {
			n += nn.ParamBytes(l.Params())
		}
	}
	return n
}
