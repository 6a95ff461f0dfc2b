// Updates (paper Section 8): after a batch of inserts changes the dataset,
// the estimator's labels drift. Incremental learning resumes training from
// the current weights on relabeled data — minutes instead of the hours a
// from-scratch retrain costs at paper scale — and recovers the accuracy.
package main

import (
	"fmt"
	"log"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/simselect"
)

func main() {
	log.SetFlags(0)
	const thetaMax = 16

	// One generation, split into the live dataset and a pool of future
	// inserts drawn from the same clusters (inserts from an unrelated
	// distribution would not change any cardinality within θmax).
	all := dataset.BinaryCodes(1800, 64, 6, 0.08, 3)
	base, extra := all[:1200], all[1200:]
	ext := feature.NewHammingExtractor(64, thetaMax, thetaMax)
	grid := dataset.ThresholdGrid(thetaMax, thetaMax)

	queries := dataset.SampleUniform(len(base), 0.10, 1)
	split := dataset.SplitWorkload(queries, 2)
	pick := func(ids []int) []dist.BitVector {
		out := make([]dist.BitVector, len(ids))
		for i, id := range ids {
			out[i] = base[id]
		}
		return out
	}
	trainQ, validQ := pick(split.Train), pick(split.Valid)

	label := func(recs []dist.BitVector, qs []dist.BitVector) *core.TrainSet {
		ix := simselect.NewHammingIndex(recs)
		ts, err := core.BuildTrainSet[dist.BitVector](ext, qs, grid, func(q dist.BitVector, g []float64) []int {
			cum := ix.CountAtEach(q, thetaMax)
			out := make([]int, len(g))
			for i, theta := range g {
				out[i] = cum[int(theta)]
			}
			return out
		})
		if err != nil {
			log.Fatal(err)
		}
		return ts
	}

	cfg := core.DefaultConfig(thetaMax)
	cfg.Accel = true
	model := core.New(cfg, ext.Dim())
	t0 := time.Now()
	res := model.Train(label(base, trainQ), label(base, validQ))
	fmt.Printf("initial training: %v, validation MSLE %.4f\n", time.Since(t0).Round(time.Millisecond), res.BestValidMSLE)

	// Insert 600 records; relabel; incrementally learn (Section 8: monitor
	// the validation error, resume from the current weights, keep the
	// original queries with fresh labels).
	updated := append(append([]dist.BitVector(nil), base...), extra...)
	newTrain := label(updated, trainQ)
	newValid := label(updated, validQ)
	t1 := time.Now()
	inc := model.IncrementalTrain(newTrain, newValid, res.BestValidMSLE)
	fmt.Printf("incremental learning after +600 inserts: %v, %d epochs, validation MSLE %.4f (skipped=%v)\n",
		time.Since(t1).Round(time.Millisecond), inc.Epochs, inc.ValidMSLE, inc.Skipped)

	// Sanity: the refreshed model tracks the larger cardinalities. Lower
	// after the retrain, as after every one: a plan lowered earlier would
	// mix its copied fused heads with the retrained weights.
	plan, err := infer.Lower(model, infer.PrecisionF64)
	if err != nil {
		log.Fatal(err)
	}
	ix := simselect.NewHammingIndex(updated)
	q := trainQ[0]
	est := &infer.Estimator[dist.BitVector]{Ext: ext, Plan: plan}
	fmt.Println("theta  actual(updated)  estimate")
	for theta := 4.0; theta <= thetaMax; theta += 4 {
		fmt.Printf("%5.0f  %15d  %8.1f\n", theta, ix.Count(q, theta), est.Estimate(q, theta))
	}
}
