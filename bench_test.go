package cardnet_test

// One benchmark per table/figure of the paper's evaluation section. Each
// runs the corresponding internal/bench experiment at a reduced scale per
// iteration and reports domain metrics (MSE, q-error, candidate counts) via
// b.ReportMetric, so `go test -bench=.` regenerates the shape of every
// result. Micro-benchmarks at the bottom measure per-estimate latency
// (Table 6's unit) directly.

import (
	"io"
	"testing"

	"cardnet/internal/bench"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/infer"
	"cardnet/internal/simselect"
)

func benchOpts() bench.Options {
	return bench.Options{NOverride: 500, QueryFrac: 0.12, GridPoints: 10,
		TestPerQuery: 5, Quick: true, EpochOverride: 10, Seed: 11, SampleRatio: 0.1}
}

func smallSpec(name string) dataset.Spec {
	s := dataset.DefaultsByName()[name]
	s.N = 500
	return s
}

func BenchmarkFig1CardinalityDistribution(b *testing.B) {
	spec := smallSpec("HM-ImageNet")
	for i := 0; i < b.N; i++ {
		bench.RunFig1(io.Discard, spec, 5, 100)
	}
}

// BenchmarkTable3to6 evaluates the full model roster on one dataset per
// distance function, reporting CardNet-A's error metrics.
func BenchmarkTable3to6Accuracy(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet"), smallSpec("ED-AMiner"),
		smallSpec("JC-BMS"), smallSpec("EU-Glove300")}
	names := []string{"DB-SE", "DB-US", "TL-XGB", "TL-KDE", "DL-RMI", "DL-DNN",
		bench.NameCardNet, bench.NameCardNetA}
	var last []bench.AccuracyResult
	for i := 0; i < b.N; i++ {
		last = bench.RunAccuracy(specs, names, benchOpts())
	}
	reportModel(b, last, bench.NameCardNetA)
}

func reportModel(b *testing.B, res []bench.AccuracyResult, name string) {
	b.Helper()
	var mse, q float64
	n := 0
	for _, r := range res {
		if r.Model == name {
			mse += r.Report.MSE
			q += r.Report.MeanQError
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(mse/float64(n), "MSE")
		b.ReportMetric(q/float64(n), "q-error")
	}
}

func BenchmarkTable7Ablations(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	for i := 0; i < b.N; i++ {
		res := bench.RunTable7(specs, benchOpts())
		for _, r := range res {
			if r.Component == "IncrementalPrediction" {
				b.ReportMetric(r.GammaMSE*100, "γMSE%")
			}
		}
	}
}

func BenchmarkFig5ThresholdSweep(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	for i := 0; i < b.N; i++ {
		bench.RunFig5(specs, benchOpts())
	}
}

func BenchmarkFig6DecoderSweep(b *testing.B) {
	spec := dataset.Spec{Name: "HM-hd", Kind: dataset.HM, N: 400, Dim: 128,
		ThetaMax: 32, Seed: 21, Clusters: 6, Flip: 0.05}
	for i := 0; i < b.N; i++ {
		bench.RunFig6([]dataset.Spec{spec}, []int{8, 32}, benchOpts())
	}
}

func BenchmarkFig7TrainingSize(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	for i := 0; i < b.N; i++ {
		bench.RunFig7(specs, []float64{0.5, 1.0}, []string{bench.NameCardNetA, "TL-XGB"}, benchOpts())
	}
}

func BenchmarkFig8Updates(b *testing.B) {
	spec := smallSpec("HM-ImageNet")
	spec.N = 300
	o := benchOpts()
	o.NOverride = 0
	for i := 0; i < b.N; i++ {
		res := bench.RunFig8(spec, 10, 5, 5, o)
		if len(res) > 0 {
			b.ReportMetric(res[len(res)-1].IncLearn, "IncLearnMSE")
		}
	}
}

func BenchmarkFig9LongTail(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	names := []string{bench.NameCardNetA, "DB-US"}
	for i := 0; i < b.N; i++ {
		bench.RunFig9(specs, names, benchOpts())
	}
}

func BenchmarkFig10OutOfDataset(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	names := []string{bench.NameCardNetA, "DB-US"}
	for i := 0; i < b.N; i++ {
		bench.RunFig10(specs, names, benchOpts())
	}
}

func BenchmarkFig11ConjunctiveOptimizer(b *testing.B) {
	specs := []bench.ConjSpec{{Name: "conj", Attrs: 2, N: 300, Dim: 8, Seed: 31}}
	for i := 0; i < b.N; i++ {
		res := bench.RunFig11(specs, 15, benchOpts())
		for _, r := range res {
			if r.Model == bench.NameCardNetA {
				b.ReportMetric(r.Precision*100, "precision%")
			}
		}
	}
}

func BenchmarkFig13GPHOptimizer(b *testing.B) {
	spec := dataset.Spec{Name: "gph", Kind: dataset.HM, N: 300, Dim: 96,
		ThetaMax: 24, Seed: 41, Clusters: 5, Flip: 0.05}
	for i := 0; i < b.N; i++ {
		res := bench.RunFig13([]dataset.Spec{spec}, 8, []int{12}, benchOpts())
		for _, r := range res {
			if r.Model == bench.NameCardNetA {
				b.ReportMetric(float64(r.Candidates), "candidates")
			}
		}
	}
}

func BenchmarkFig14HistogramSweep(b *testing.B) {
	spec := dataset.Spec{Name: "gph", Kind: dataset.HM, N: 300, Dim: 96,
		ThetaMax: 24, Seed: 41, Clusters: 5, Flip: 0.05}
	for i := 0; i < b.N; i++ {
		bench.RunFig14(spec, 6, []int{4, 8}, benchOpts())
	}
}

func BenchmarkTable14to16Policies(b *testing.B) {
	specs := []dataset.Spec{smallSpec("HM-ImageNet")}
	names := []string{bench.NameCardNetA, "DB-US"}
	for i := 0; i < b.N; i++ {
		bench.RunPolicies(specs, names, []bench.Policy{bench.SingleUniform, bench.SingleSkewed}, benchOpts())
	}
}

// --- Micro-benchmarks: per-estimate latency (Table 6's unit) and the exact
// selection algorithms the estimators must beat. ---

// trainedPlan trains a small CardNet (accel: CardNet-A) and returns its f64
// plan, the thing that answers estimates, with one encoded test query.
func trainedPlan(b *testing.B, accel bool) (*infer.Plan, []float64) {
	b.Helper()
	s := bench.BuildSuite(smallSpec("HM-ImageNet"), benchOpts())
	bd := s.Bundle
	cfg := core.DefaultConfig(bd.TauMax)
	cfg.Accel = accel
	cfg.VAEHidden = []int{32}
	cfg.VAELatent = 8
	cfg.VAEEpochs = 4
	cfg.PhiHidden = []int{48, 32}
	cfg.ZDim = 16
	cfg.Epochs = 6
	m := core.New(cfg, bd.Train.X.Cols)
	m.Train(bd.Train, bd.Valid)
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		b.Fatal(err)
	}
	return p, bd.TestX.Row(0)
}

func BenchmarkEstimateCardNet(b *testing.B) {
	p, x := trainedPlan(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Estimate(x, 16)
	}
}

func BenchmarkEstimateCardNetA(b *testing.B) {
	p, x := trainedPlan(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Estimate(x, 16)
	}
}

func BenchmarkSimSelectHamming(b *testing.B) {
	recs := dataset.BinaryCodes(2000, 64, 8, 0.08, 5)
	ix := simselect.NewHammingIndex(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Count(recs[i%len(recs)], 16)
	}
}

func BenchmarkSimSelectEdit(b *testing.B) {
	recs := dataset.Strings(2000, 40, 3, 0.15, 6)
	ix := simselect.NewEditIndex(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Count(recs[i%len(recs)], 4)
	}
}

func BenchmarkSimSelectJaccard(b *testing.B) {
	recs := dataset.Sets(2000, 500, 20, 8, 0.8, 3, 7)
	ix := simselect.NewJaccardIndex(recs, 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Count(recs[i%len(recs)], 0.4)
	}
}

func BenchmarkSimSelectEuclidean(b *testing.B) {
	recs := dataset.Vectors(2000, 32, 8, 0.1, true, 8)
	ix := simselect.NewEuclideanIndex(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Count(recs[i%len(recs)], 0.5)
	}
}

func BenchmarkHammingDistance(b *testing.B) {
	recs := dataset.BinaryCodes(2, 256, 1, 0.2, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Hamming(recs[0], recs[1])
	}
}

func BenchmarkTrainEpochCardNetA(b *testing.B) {
	s := bench.BuildSuite(smallSpec("HM-ImageNet"), benchOpts())
	bd := s.Bundle
	cfg := core.DefaultConfig(bd.TauMax)
	cfg.Accel = true
	cfg.VAEEpochs = 0
	cfg.Epochs = 1
	cfg.Patience = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.New(cfg, bd.Train.X.Cols)
		m.Train(bd.Train, nil)
	}
}
