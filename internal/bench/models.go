package bench

import (
	"fmt"
	"math"
	"math/rand"

	"cardnet/internal/baselines"
	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// Model-handle names used across experiments.
const (
	NameSimSelect = "SimSelect"
	NameCardNet   = "CardNet"
	NameCardNetA  = "CardNet-A"
)

// AblationNames lists the Table 7 variant handles (component replaced →
// handle name).
var AblationNames = map[string]string{
	"FeatureExtraction":     "CardNet-A-feat",
	"IncrementalPrediction": "CardNet-A-inc",
	"VAE":                   "CardNet-A-vae",
	"DynamicTraining":       "CardNet-A-dyn",
}

// AllModelNames is the Table 3–6 roster in paper order.
var AllModelNames = []string{
	"DB-SE", "DB-US", "TL-XGB", "TL-LGBM", "TL-KDE",
	"DL-DLN", "DL-MoE", "DL-RMI", "DL-DNN", "DL-DNNst",
	NameCardNet, NameCardNetA,
}

// buildHandles wires every model to the bundle.
func buildHandles(b *Bundle, opts Options) []*Handle {
	var hs []*Handle

	// SimSelect: the exact algorithm as a (slow) "estimator" for Table 6.
	hs = append(hs, &Handle{Name: NameSimSelect, Monotone: true,
		estimate: func(tp TestPoint) float64 { return b.simSelect(tp.Query, tp.Theta) },
		size:     func() int { return 0 },
	})

	// Record-space models (already fitted during the bundle build).
	for _, rm := range b.recordModels {
		rm := rm
		hs = append(hs, &Handle{Name: rm.name, Monotone: true,
			estimate: func(tp TestPoint) float64 { return rm.estimate(tp.Query, tp.Theta) },
			size:     func() int { return rm.size },
		})
	}

	// Vector models on the encoded features.
	fast := fitProfile(opts)
	vms := []baselines.VectorModel{
		baselines.NewXGB(b.TauMax),
		baselines.NewLGBM(b.TauMax),
		withFit(baselines.NewDLN(b.TauMax), fast),
		withFit(baselines.NewMoE(b.TauMax), fast),
		withFit(baselines.NewRMI(b.TauMax), fast),
		withFit(baselines.NewDNN(b.TauMax), fast),
		withFit(baselines.NewDNNPerTau(b.TauMax), fast),
	}
	monotone := map[string]bool{"TL-XGB": true, "TL-LGBM": true, "DL-DLN": true}
	for _, vm := range vms {
		vm := vm
		hs = append(hs, &Handle{Name: vm.Name(), Monotone: monotone[vm.Name()],
			fit:      func() { vm.Fit(b.Train, b.Valid) },
			estimate: func(tp TestPoint) float64 { return vm.Estimate(b.TestX.Row(tp.Query), tp.Tau) },
			size:     func() int { return vm.SizeBytes() },
		})
	}

	// CardNet and CardNet-A.
	hs = append(hs,
		cardNetHandle(NameCardNet, cardNetConfig(opts, b.TauMax, false), b, false),
		cardNetHandle(NameCardNetA, cardNetConfig(opts, b.TauMax, true), b, false))

	// DL-BiLSTM: edit-distance datasets only (the paper's recurrent
	// feature-extraction variant).
	if trainStrs, ok := b.TrainRecords.([]string); ok {
		bl := baselines.NewBiLSTM(b.TauMax)
		bl.Fit_.Epochs = fitProfile(opts)
		hs = append(hs, &Handle{Name: "DL-BiLSTM", Monotone: true,
			fit: func() { bl.FitStrings(trainStrs, b.Train.Labels, b.Train.TauTop) },
			estimate: func(tp TestPoint) float64 {
				return bl.EstimateString(b.TestRecords.([]string)[tp.Query], tp.Tau)
			},
			size: func() int { return bl.SizeBytes() },
		})
	}

	hs = append(hs, ablationHandles(b, opts)...)
	return hs
}

// ablationHandles builds the Table 7 variants of CardNet-A: each replaces
// one component with the paper's alternative.
func ablationHandles(b *Bundle, opts Options) []*Handle {
	var hs []*Handle

	// Feature extraction replaced by the dense per-kind encoding (nil for
	// Hamming, where features are already the raw vectors).
	if b.AltTrain != nil {
		hs = append(hs, cardNetHandle(AblationNames["FeatureExtraction"],
			cardNetConfig(opts, b.TauMax, true), b, true))
	}

	// Incremental prediction replaced: one decoder on [x′; e_τ] predicting
	// the total cardinality directly (a VAE-augmented DNN).
	dm := newDirectModel(b, opts)
	hs = append(hs, &Handle{Name: AblationNames["IncrementalPrediction"], Monotone: false,
		fit:      func() { dm.fit(b) },
		estimate: func(tp TestPoint) float64 { return dm.estimate(b.TestX.Row(tp.Query), tp.Tau) },
		size:     func() int { return dm.size() },
	})

	// VAE replaced by direct concatenation of the binary vector.
	noVAE := cardNetConfig(opts, b.TauMax, true)
	noVAE.VAELatent = 0
	noVAE.Lambda = 0
	hs = append(hs, cardNetHandle(AblationNames["VAE"], noVAE, b, false))

	// Dynamic training replaced by plain MSLE.
	plainMSLE := cardNetConfig(opts, b.TauMax, true)
	plainMSLE.LambdaDelta = 0
	hs = append(hs, cardNetHandle(AblationNames["DynamicTraining"], plainMSLE, b, false))
	return hs
}

// cardNetHandle is a CardNet model of config cfg on b's encoded features
// (alt: the dense per-kind encoding). Fit trains it and lowers it to its f64
// plan, which answers every estimate. The bundle's sets are read at use
// time: RunFig7 subsets the training sets after the handles are built, and
// Figure 10 swaps in new test queries after they are fitted.
func cardNetHandle(name string, cfg core.Config, b *Bundle, alt bool) *Handle {
	train, valid, testX := &b.Train, &b.Valid, &b.TestX
	if alt {
		train, valid, testX = &b.AltTrain, &b.AltValid, &b.AltTestX
	}
	m := core.New(cfg, (*train).X.Cols)
	var plan *infer.Plan
	return &Handle{Name: name, Monotone: true,
		fit: func() {
			m.Train(*train, *valid)
			plan = lowerF64(m)
		},
		estimate: func(tp TestPoint) float64 { return plan.Estimate((*testX).Row(tp.Query), tp.Tau) },
		size:     func() int { return m.SizeBytes() },
	}
}

// lowerF64 compiles a trained model to the f64 plan that answers its
// estimates. Lowering fails only on a NaN or infinite weight, which no
// experiment can report on, so that panics.
func lowerF64(m *core.Model) *infer.Plan {
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		panic(fmt.Sprintf("bench: lower trained CardNet: %v", err))
	}
	return p
}

// directModel is the incremental-prediction ablation: VAE pretraining plus a
// single FNN from [x; E[z]; τ/τmax] to the total cardinality.
type directModel struct {
	tauMax int
	cfg    core.Config
	vae    *nn.VAE
	mlp    *nn.Sequential
}

func newDirectModel(b *Bundle, opts Options) *directModel {
	return &directModel{tauMax: b.TauMax, cfg: cardNetConfig(opts, b.TauMax, false)}
}

func (d *directModel) fit(b *Bundle) {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	d.vae = nn.NewVAE(rng, b.Train.X.Cols, d.cfg.VAEHidden, d.cfg.VAELatent)
	d.vae.Pretrain(b.Train.X, d.cfg.VAEEpochs, d.cfg.Batch, d.cfg.LR, rng, 1)

	inDim := b.Train.X.Cols + d.cfg.VAELatent + 1
	dims := append([]int{inDim}, d.cfg.PhiHidden...)
	dims = append(dims, 1)
	d.mlp = nn.NewMLP(rng, dims, nn.ReLU, nn.Identity)

	latent := d.vae.Mean(b.Train.X)
	var x [][]float64
	var y []float64
	for q := 0; q < b.Train.NumQueries(); q++ {
		for tau := 0; tau <= b.Train.TauTop; tau++ {
			row := make([]float64, inDim)
			copy(row, b.Train.X.Row(q))
			copy(row[b.Train.X.Cols:], latent.Row(q))
			row[inDim-1] = float64(tau) / float64(maxI(b.TauMax, 1))
			x = append(x, row)
			y = append(y, logCount(b.Train.Labels.At(q, tau)))
		}
	}
	baselines.FitRegressor(d.mlp, x, y, d.cfg.Epochs, d.cfg.Batch, d.cfg.LR, rng)
}

func (d *directModel) estimate(x []float64, tau int) float64 {
	if d.mlp == nil {
		return 0
	}
	xm := &tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	latent := d.vae.Mean(xm)
	row := make([]float64, len(x)+d.cfg.VAELatent+1)
	copy(row, x)
	copy(row[len(x):], latent.Row(0))
	row[len(row)-1] = float64(tau) / float64(maxI(d.tauMax, 1))
	rm := &tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	return expCount(d.mlp.Forward(nil, rm, false).Data[0])
}

func (d *directModel) size() int {
	if d.mlp == nil {
		return 0
	}
	return nn.ParamBytes(d.mlp.Params()) + nn.ParamBytes(d.vae.Params())
}

// fitProfile returns the baseline fit profile for the options.
func fitProfile(opts Options) int {
	if opts.EpochOverride > 0 {
		return opts.EpochOverride
	}
	if opts.Quick {
		return 24
	}
	return 40
}

// withFit overrides a baseline's epoch budget where the concrete type
// supports it.
func withFit(vm baselines.VectorModel, epochs int) baselines.VectorModel {
	switch m := vm.(type) {
	case *baselines.DNN:
		m.Fit_.Epochs = epochs
	case *baselines.DNNPerTau:
		m.Fit_.Epochs = epochs
	case *baselines.MoE:
		m.Fit_.Epochs = epochs
	case *baselines.RMI:
		m.Fit_.Epochs = epochs
	case *baselines.DLN:
		m.Fit_.Epochs = epochs * 2
	}
	return vm
}

func logCount(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

func expCount(v float64) float64 {
	c := math.Expm1(v)
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	return c
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
