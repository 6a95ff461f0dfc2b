// Quickstart: train a CardNet-A estimator on binary codes under Hamming
// distance and estimate selection cardinalities, demonstrating the
// monotonicity guarantee.
package main

import (
	"fmt"
	"log"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/simselect"
)

func main() {
	log.SetFlags(0)

	// 1. A dataset of 64-bit codes (stand-in for learned image hashes).
	records := dataset.BinaryCodes(2000, 64, 8, 0.08, 42)
	index := simselect.NewHammingIndex(records)

	// 2. Feature extraction: Hamming codes pass through unchanged; the
	//    threshold budget is 20 with one decoder per distance value.
	const thetaMax = 20
	ext := feature.NewHammingExtractor(64, thetaMax, thetaMax)

	// 3. Label a 10% query workload with the exact algorithm (Section 6.1).
	queries := dataset.SampleUniform(len(records), 0.10, 1)
	split := dataset.SplitWorkload(queries, 2)
	grid := dataset.ThresholdGrid(thetaMax, thetaMax)
	counts := func(q dist.BitVector, g []float64) []int {
		cum := index.CountAtEach(q, thetaMax)
		out := make([]int, len(g))
		for i, theta := range g {
			out[i] = cum[int(theta)]
		}
		return out
	}
	pick := func(ids []int) []dist.BitVector {
		out := make([]dist.BitVector, len(ids))
		for i, id := range ids {
			out[i] = records[id]
		}
		return out
	}
	train, err := core.BuildTrainSet[dist.BitVector](ext, pick(split.Train), grid, counts)
	if err != nil {
		log.Fatal(err)
	}
	valid, err := core.BuildTrainSet[dist.BitVector](ext, pick(split.Valid), grid, counts)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Train CardNet-A (the accelerated encoder of Section 7).
	cfg := core.DefaultConfig(thetaMax)
	cfg.Accel = true
	model := core.New(cfg, ext.Dim())
	res := model.Train(train, valid)
	log.Printf("trained in %d epochs, validation MSLE %.4f, model size %d KB\n",
		res.Epochs, res.BestValidMSLE, model.SizeBytes()/1024)

	// 5. Lower the trained model to its f64 inference plan and estimate
	//    through it: the composed estimator is monotone in θ (Lemma 1).
	plan, err := infer.Lower(model, infer.PrecisionF64)
	if err != nil {
		log.Fatal(err)
	}
	est := &infer.Estimator[dist.BitVector]{Ext: ext, Plan: plan}
	q := records[split.Test[0]]
	fmt.Println("theta  actual  estimate")
	for theta := 0.0; theta <= thetaMax; theta += 4 {
		fmt.Printf("%5.0f  %6d  %8.1f\n", theta, index.Count(q, theta), est.Estimate(q, theta))
	}
}
