package bench

import (
	"fmt"
	"io"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/metrics"
	"cardnet/internal/simselect"
)

// UpdatePoint is one evaluation along the update stream (Figure 8).
type UpdatePoint struct {
	Op         int // operations applied so far
	IncLearn   float64
	Retrain    float64
	PlusSample float64
	IncSeconds float64 // incremental-learning time at this checkpoint
	RetSeconds float64
}

// RunFig8 streams batched inserts/deletes over a Hamming dataset and
// compares three strategies at checkpoints: IncLearn (incremental learning
// on CardNet-A from the current weights, Section 8), Retrain (from scratch),
// and +Sample (the stale model plus an exact count over the delta records,
// the best case of the paper's sampling correction). Reported values are
// test-set MSE against the updated dataset.
func RunFig8(spec dataset.Spec, nOps, batch, evalEvery int, opts Options) []UpdatePoint {
	if spec.Kind != dataset.HM {
		panic("bench: RunFig8 expects a Hamming spec (paper uses HM-ImageNet and EU-Glove300; the Hamming pipeline is the one exercised here)")
	}
	if opts.QueryFrac == 0 {
		opts = DefaultOptions()
	}
	// Generate the live dataset and the insert pool together so inserts
	// share the live clusters and actually shift cardinalities.
	bigSpec := spec
	bigSpec.N = spec.N + spec.N/2
	all := dataset.Generate(bigSpec)
	base := &dataset.Materialized{Spec: spec, Bits: all.Bits[:spec.N]}
	pool := &dataset.Materialized{Spec: spec, Bits: all.Bits[spec.N:]}

	maxTheta := int(spec.ThetaMax)
	tauMax := defaultTauMax(spec, opts)
	ext := feature.NewHammingExtractor(spec.Dim, maxTheta, tauMax)
	grid := dataset.ThresholdGrid(spec.ThetaMax, opts.GridPoints)

	// live holds the current dataset contents.
	live := append([]dist.BitVector(nil), base.Bits...)
	deleted := map[int]bool{}
	var inserted []dist.BitVector

	currentRecords := func() []dist.BitVector {
		out := make([]dist.BitVector, 0, len(live)+len(inserted))
		for i, r := range live {
			if !deleted[i] {
				out = append(out, r)
			}
		}
		return append(out, inserted...)
	}

	queryIdx := dataset.SampleUniform(len(live), opts.QueryFrac, opts.Seed)
	split := dataset.SplitWorkload(queryIdx, opts.Seed+1)
	pick := func(ids []int) []dist.BitVector {
		out := make([]dist.BitVector, len(ids))
		for i, id := range ids {
			out[i] = live[id]
		}
		return out
	}
	trainQ, validQ, testQ := pick(split.Train), pick(split.Valid), pick(split.Test)

	label := func(qs []dist.BitVector, recs []dist.BitVector) *core.TrainSet {
		ix := simselect.NewHammingIndex(recs)
		ts, err := core.BuildTrainSet[dist.BitVector](ext, qs, grid, func(q dist.BitVector, g []float64) []int {
			cum := ix.CountAtEach(q, maxTheta)
			out := make([]int, len(g))
			for i, theta := range g {
				out[i] = cum[int(theta)]
			}
			return out
		})
		if err != nil {
			panic(err)
		}
		return ts
	}

	cfg := cardNetConfig(opts, tauMax, true)
	inc := core.New(cfg, ext.Dim())
	train0 := label(trainQ, live)
	valid0 := label(validQ, live)
	res0 := inc.Train(train0, valid0)
	prevValid := res0.BestValidMSLE

	// The +Sample strategy keeps the original model frozen (a deep copy:
	// an f64 plan's layers are views of its model's weights, so a plan of
	// inc itself would follow its retraining).
	frozenPlan := lowerF64(inc.Clone())

	stream := dataset.UpdateStream(len(live), len(pool.Bits), nOps, batch, opts.Seed+5)
	var out []UpdatePoint
	for opIdx, op := range stream {
		if op.Insert {
			for _, id := range op.IDs {
				inserted = append(inserted, pool.Bits[id])
			}
		} else {
			for _, id := range op.IDs {
				deleted[id] = true
			}
		}
		if (opIdx+1)%evalEvery != 0 && opIdx != len(stream)-1 {
			continue
		}

		recs := currentRecords()
		newTrain := label(trainQ, recs)
		newValid := label(validQ, recs)
		newTest := label(testQ, recs)

		// IncLearn.
		incStart := time.Now()
		incRes := inc.IncrementalTrain(newTrain, newValid, prevValid)
		incSecs := time.Since(incStart).Seconds()
		prevValid = incRes.ValidMSLE
		// Lower again after every retrain: the plan's fused heads are
		// copies, so an older plan would mix old and new weights.
		incPlan := lowerF64(inc)

		// Retrain from scratch.
		retStart := time.Now()
		retrained := core.New(cfg, ext.Dim())
		retrained.Train(newTrain, newValid)
		retSecs := time.Since(retStart).Seconds()

		// Evaluate all three on the updated labels (MSE over every (q, τ)).
		evalModel := func(estimate func(x []float64, tau int) float64) float64 {
			var actual, est []float64
			for q := 0; q < newTest.NumQueries(); q++ {
				x := newTest.X.Row(q)
				for tau := 0; tau <= newTest.TauTop; tau += 2 {
					actual = append(actual, newTest.Labels.At(q, tau))
					est = append(est, estimate(x, tau))
				}
			}
			return metrics.MSE(actual, est)
		}
		insIx := simselect.NewHammingIndex(inserted)
		delRecs := make([]dist.BitVector, 0, len(deleted))
		for id := range deleted {
			delRecs = append(delRecs, live[id])
		}
		delIx := simselect.NewHammingIndex(delRecs)

		out = append(out, UpdatePoint{
			Op:       opIdx + 1,
			IncLearn: evalModel(incPlan.Estimate),
			Retrain:  evalModel(lowerF64(retrained).Estimate),
			PlusSample: evalModel(func(x []float64, tau int) float64 {
				// Stale estimate plus delta corrections counted exactly over
				// the (small) insert/delete sets.
				q := bitsFromFloats(x)
				v := frozenPlan.Estimate(x, tau) +
					float64(insIx.Count(q, float64(tau))) -
					float64(delIx.Count(q, float64(tau)))
				if v < 0 {
					return 0
				}
				return v
			}),
			IncSeconds: incSecs,
			RetSeconds: retSecs,
		})
	}
	return out
}

// RenderFig8 prints the update-stream checkpoints.
func RenderFig8(w io.Writer, spec string, res []UpdatePoint) {
	t := newTable(fmt.Sprintf("Figure 8: updates on %s (test MSE)", spec),
		"Ops", "IncLearn", "Retrain", "+Sample", "IncTime(s)", "RetrainTime(s)")
	for _, p := range res {
		t.addf("%d\t%s\t%s\t%s\t%.2f\t%.2f",
			p.Op, f2(p.IncLearn), f2(p.Retrain), f2(p.PlusSample), p.IncSeconds, p.RetSeconds)
	}
	t.render(w)
}

// bitsFromFloats rebuilds a BitVector from its 0/1 float encoding (the
// Hamming feature map is the identity).
func bitsFromFloats(x []float64) dist.BitVector {
	v := dist.NewBitVector(len(x))
	for i, f := range x {
		if f >= 0.5 {
			v.SetBit(i, true)
		}
	}
	return v
}
