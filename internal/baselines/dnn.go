package baselines

import (
	"math/rand"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// fitCfg bundles the shared FNN training hyperparameters of the deep
// baselines.
type fitCfg struct {
	Epochs int
	Batch  int
	LR     float64
	Seed   int64
}

func defaultFit() fitCfg { return fitCfg{Epochs: 40, Batch: 64, LR: 1e-3, Seed: 1} }

// FitRegressor trains an MLP on rows → scalar log-count targets with MSE in
// log space (equivalent to MSLE on counts): epochs passes over x in
// rng-shuffled minibatches of batch rows, Adam at lr, gradient norm clipped
// at 5. The deep baselines and the bench ablations share it.
func FitRegressor(mlp *nn.Sequential, x [][]float64, ylog []float64, epochs, batch int, lr float64, rng *rand.Rand) {
	if len(x) == 0 {
		return
	}
	params := mlp.Params()
	opt := nn.NewAdam(params, lr)
	ctx := nn.NewCtx() // serves every step: AddGradsInto empties it
	perm := make([]int, len(x))
	for i := range perm {
		perm[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			rows := perm[start:end]
			xb := tensor.NewMatrix(len(rows), len(x[0]))
			yb := make([]float64, len(rows))
			for i, r := range rows {
				copy(xb.Row(i), x[r])
				yb[i] = ylog[r]
			}
			out := mlp.Forward(ctx, xb, true)
			grad := tensor.NewMatrix(out.Rows, 1)
			for i := range yb {
				grad.Data[i] = nn.MSEGrad(out.Data[i], yb[i], len(yb))
			}
			mlp.Backward(ctx, grad)
			ctx.AddGradsInto(params)
			nn.ClipGradNorm(params, 5)
			opt.Step()
		}
	}
}

// DNN is DL-DNN: one vanilla FNN with four hidden layers on the
// concatenation [x; τ/τmax], the "simply feed a deep network the training
// data" baseline. Not monotone.
type DNN struct {
	TauMax int
	Hidden []int
	Fit_   fitCfg
	mlp    *nn.Sequential
	inDim  int
}

// NewDNN builds the baseline with the paper's four hidden layers (scaled).
func NewDNN(tauMax int) *DNN {
	return &DNN{TauMax: tauMax, Hidden: []int{64, 64, 32, 32}, Fit_: defaultFit()}
}

// Name identifies the model.
func (d *DNN) Name() string { return "DL-DNN" }

// Fit trains on the flattened rows.
func (d *DNN) Fit(train, _ *core.TrainSet) {
	x, _, y := flatten(train, d.TauMax)
	if len(x) == 0 {
		return
	}
	d.inDim = len(x[0])
	rng := rand.New(rand.NewSource(d.Fit_.Seed))
	dims := append([]int{d.inDim}, d.Hidden...)
	dims = append(dims, 1)
	d.mlp = nn.NewMLP(rng, dims, nn.ReLU, nn.Identity)
	c := d.Fit_
	FitRegressor(d.mlp, x, log1pTargets(y), c.Epochs, c.Batch, c.LR, rand.New(rand.NewSource(c.Seed)))
}

// Estimate runs the FNN.
func (d *DNN) Estimate(x []float64, tau int) float64 {
	if d.mlp == nil {
		return 0
	}
	row := make([]float64, len(x)+1)
	copy(row, x)
	if d.TauMax > 0 {
		row[len(x)] = float64(tau) / float64(d.TauMax)
	}
	xm := &tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	return fromLog(d.mlp.Forward(nil, xm, false).Data[0])
}

// SizeBytes reports the serialized parameter size.
func (d *DNN) SizeBytes() int {
	if d.mlp == nil {
		return 0
	}
	return nn.ParamBytes(d.mlp.Params())
}

// DNNPerTau is DL-DNNsτ: τmax+1 independently trained networks, the i-th
// predicting the cardinality at τ=i. More parameters than DL-DNN and prone
// to overfitting, as the paper observes.
type DNNPerTau struct {
	TauMax int
	Hidden []int
	Fit_   fitCfg
	nets   []*nn.Sequential
}

// NewDNNPerTau builds the per-τ ensemble with small member networks.
func NewDNNPerTau(tauMax int) *DNNPerTau {
	return &DNNPerTau{TauMax: tauMax, Hidden: []int{48, 32}, Fit_: defaultFit()}
}

// Name identifies the model.
func (d *DNNPerTau) Name() string { return "DL-DNNst" }

// Fit trains one network per τ on that τ's labels.
func (d *DNNPerTau) Fit(train, _ *core.TrainSet) {
	d.nets = make([]*nn.Sequential, d.TauMax+1)
	inDim := train.X.Cols
	for t := 0; t <= train.TauTop && t <= d.TauMax; t++ {
		rng := rand.New(rand.NewSource(d.Fit_.Seed + int64(t)))
		dims := append([]int{inDim}, d.Hidden...)
		dims = append(dims, 1)
		net := nn.NewMLP(rng, dims, nn.ReLU, nn.Identity)
		x := make([][]float64, train.NumQueries())
		y := make([]float64, train.NumQueries())
		for q := 0; q < train.NumQueries(); q++ {
			x[q] = train.X.Row(q)
			y[q] = train.Labels.At(q, t)
		}
		cfg := d.Fit_
		cfg.Epochs = cfg.Epochs / 2 // per-τ nets see 1/(τ+1) of the data each
		if cfg.Epochs < 5 {
			cfg.Epochs = 5
		}
		FitRegressor(net, x, log1pTargets(y), cfg.Epochs, cfg.Batch, cfg.LR, rand.New(rand.NewSource(cfg.Seed)))
		d.nets[t] = net
	}
}

// Estimate evaluates the τ-th network.
func (d *DNNPerTau) Estimate(x []float64, tau int) float64 {
	if tau < 0 {
		return 0
	}
	if tau >= len(d.nets) {
		tau = len(d.nets) - 1
	}
	for tau >= 0 && d.nets[tau] == nil {
		tau--
	}
	if tau < 0 {
		return 0
	}
	xm := &tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	return fromLog(d.nets[tau].Forward(nil, xm, false).Data[0])
}

// SizeBytes sums all member networks.
func (d *DNNPerTau) SizeBytes() int {
	n := 0
	for _, net := range d.nets {
		if net != nil {
			n += nn.ParamBytes(net.Params())
		}
	}
	return n
}
