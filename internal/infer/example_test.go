package infer_test

import (
	"fmt"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/simselect"
)

// hammingSets labels Hamming-code queries with exact counts up to θ = 12:
// records[:80] train, records[80:100] validate.
func hammingSets(records []dist.BitVector, ext *feature.HammingExtractor) (train, valid *core.TrainSet) {
	index := simselect.NewHammingIndex(records)
	grid := dataset.ThresholdGrid(12, 12)
	counts := func(q dist.BitVector, g []float64) []int {
		cum := index.CountAtEach(q, 12)
		out := make([]int, len(g))
		for i, theta := range g {
			out[i] = cum[int(theta)]
		}
		return out
	}
	train, _ = core.BuildTrainSet[dist.BitVector](ext, records[:80], grid, counts)
	valid, _ = core.BuildTrainSet[dist.BitVector](ext, records[80:100], grid, counts)
	return train, valid
}

// Example shows the full train-then-estimate loop on Hamming codes: train
// the core.Model, lower it to its f64 plan, and answer through the plan. It
// is compile-checked documentation; examples/quickstart runs the same flow.
func Example() {
	records := dataset.BinaryCodes(500, 32, 4, 0.08, 1)
	ext := feature.NewHammingExtractor(32, 12, 12)
	train, valid := hammingSets(records, ext)

	cfg := core.DefaultConfig(12)
	cfg.Accel = true // CardNet-A fused encoder
	cfg.Epochs = 2   // documentation-sized training
	model := core.New(cfg, ext.Dim())
	model.Train(train, valid)

	plan, err := infer.Lower(model, infer.PrecisionF64)
	if err != nil {
		panic(err)
	}
	est := &infer.Estimator[dist.BitVector]{Ext: ext, Plan: plan}
	a := est.Estimate(records[0], 4)
	b := est.Estimate(records[0], 8)
	fmt.Println(b >= a) // monotone in θ by construction
	// Output: true
}

// TestEstimatorEndToEndMonotoneInTheta is Lemma 1 on a trained model: the
// composed record-level estimate never decreases as θ grows.
func TestEstimatorEndToEndMonotoneInTheta(t *testing.T) {
	records := dataset.BinaryCodes(200, 32, 4, 0.08, 5)
	ext := feature.NewHammingExtractor(32, 12, 12)
	train, valid := hammingSets(records, ext)

	cfg := core.DefaultConfig(12)
	cfg.Accel = true
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 6
	cfg.VAEEpochs = 3
	cfg.PhiHidden = []int{24, 16}
	cfg.ZDim = 12
	cfg.Epochs = 6
	cfg.Batch = 16
	m := core.New(cfg, ext.Dim())
	m.Train(train, valid)
	plan, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	est := &infer.Estimator[dist.BitVector]{Ext: ext, Plan: plan}
	q := records[0]
	prev := -1.0
	for theta := 0.0; theta <= 12; theta++ {
		v := est.Estimate(q, theta)
		if v < prev-1e-9 {
			t.Fatalf("estimate not monotone in θ at %v", theta)
		}
		prev = v
	}
}
