package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"cardnet/internal/baselines"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/optimizer"
	"cardnet/internal/tensor"
)

// ConjSpec describes one multi-attribute dataset of the conjunctive query
// case study (paper Table 11 analogue).
type ConjSpec struct {
	Name  string
	Attrs int
	N     int
	Dim   int
	Seed  int64
}

// DefaultConjSpecs mirrors Table 11's four datasets at reduced scale.
func DefaultConjSpecs() []ConjSpec {
	return []ConjSpec{
		{Name: "AMiner-Publication", Attrs: 5, N: 1500, Dim: 16, Seed: 501},
		{Name: "AMiner-Author", Attrs: 3, N: 1500, Dim: 16, Seed: 502},
		{Name: "IMDB-Movie", Attrs: 4, N: 1500, Dim: 16, Seed: 503},
		{Name: "IMDB-Actor", Attrs: 2, N: 1500, Dim: 16, Seed: 504},
	}
}

// ConjResult holds one estimator's outcome on one conjunctive dataset
// (Figures 11 and 12).
type ConjResult struct {
	Dataset    string
	Model      string
	EstSeconds float64 // cardinality-estimation (planning) time
	PostSecs   float64 // index lookup + verification time
	Candidates int
	// Precision is the share of queries whose chosen plan is as good as the
	// oracle's: its candidate count within 20% (+2) of the best predicate's.
	// At reduced scale many predicates tie exactly, so identity-of-argmin
	// would undercount good plans.
	Precision float64
}

// RunFig11 runs the conjunctive Euclidean case study: per-attribute
// estimators plan which predicate drives the index lookup; we measure
// planning time, postprocessing time, and planning precision.
func RunFig11(specs []ConjSpec, nQueries int, opts Options) []ConjResult {
	if opts.QueryFrac == 0 {
		opts = DefaultOptions()
	}
	const thetaMin, thetaMax = 0.2, 0.5
	var out []ConjResult
	for _, cs := range specs {
		// Attribute columns with varying cluster tightness so selectivities
		// differ across attributes (the planner's reason to exist).
		attrs := make([][][]float64, cs.Attrs)
		for a := 0; a < cs.Attrs; a++ {
			std := 0.05 + 0.06*float64(a)
			attrs[a] = dataset.Vectors(cs.N, cs.Dim, 4+a, std, true, cs.Seed+int64(a))
		}
		db := optimizer.NewConjunctiveDB(attrs)

		// Train learned estimators per attribute.
		type attrModels struct {
			cardnet *infer.Plan
			xgb     *baselines.Boosted
			rmi     *baselines.RMI
			bundle  *Bundle
		}
		models := make([]attrModels, cs.Attrs)
		for a := 0; a < cs.Attrs; a++ {
			s := BuildEuclideanSuite(fmt.Sprintf("%s-attr%d", cs.Name, a), attrs[a], thetaMax, opts)
			b := s.Bundle
			am := attrModels{bundle: b}
			cn := core.New(cardNetConfig(opts, b.TauMax, true), b.Train.X.Cols)
			cn.Train(b.Train, b.Valid)
			am.cardnet = lowerF64(cn)
			am.xgb = baselines.NewXGB(b.TauMax)
			am.xgb.Fit(b.Train, b.Valid)
			am.rmi = baselines.NewRMI(b.TauMax)
			am.rmi.Fit_.Epochs = fitProfile(opts)
			am.rmi.Fit(b.Train, b.Valid)
			models[a] = am
		}
		usByAttr := make([]*baselines.UniformSample[[]float64], cs.Attrs)
		for a := range usByAttr {
			usByAttr[a] = baselines.NewUniformSample(attrs[a], 0.05, dist.Euclidean, cs.Seed+int64(a))
		}

		wrap := func(name string, fn func(attr int, q []float64, theta float64) float64) optimizer.AttrEstimator {
			return &optimizer.FuncAttrEstimator{Label: name, Fn: fn}
		}
		estimators := []optimizer.AttrEstimator{
			&optimizer.ExactAttrEstimator{DB: db},
			wrap(NameCardNetA, func(a int, q []float64, theta float64) float64 {
				b := models[a].bundle
				return models[a].cardnet.Estimate(b.EncodeRecord(q), b.ThresholdOf(theta))
			}),
			wrap("DL-RMI", func(a int, q []float64, theta float64) float64 {
				b := models[a].bundle
				return models[a].rmi.Estimate(b.EncodeRecord(q), b.ThresholdOf(theta))
			}),
			wrap("TL-XGB", func(a int, q []float64, theta float64) float64 {
				b := models[a].bundle
				return models[a].xgb.Estimate(b.EncodeRecord(q), b.ThresholdOf(theta))
			}),
			wrap("DB-US", func(a int, q []float64, theta float64) float64 {
				return usByAttr[a].Estimate(q, theta)
			}),
		}
		mean := NewMeanConjEstimator(db, 16, thetaMax, 40)
		estimators = append(estimators, mean)

		// Query workload: conjunctions centred on dataset records.
		rng := rand.New(rand.NewSource(cs.Seed + 99))
		queries := make([][]optimizer.Predicate, nQueries)
		for i := range queries {
			id := rng.Intn(cs.N)
			preds := make([]optimizer.Predicate, cs.Attrs)
			for a := 0; a < cs.Attrs; a++ {
				preds[a] = optimizer.Predicate{
					Attr:  a,
					Query: attrs[a][id],
					Theta: thetaMin + rng.Float64()*(thetaMax-thetaMin),
				}
			}
			queries[i] = preds
		}
		bestCands := make([]int, nQueries)
		for i, preds := range queries {
			bestCands[i] = db.CandidateCount(preds[db.BestPick(preds)])
		}

		for _, est := range estimators {
			var estTime, postTime time.Duration
			cands := 0
			agree := 0
			for i, preds := range queries {
				t0 := time.Now()
				pick := optimizer.Plan(est, preds)
				estTime += time.Since(t0)
				t1 := time.Now()
				_, c := db.Process(preds, pick)
				postTime += time.Since(t1)
				cands += c
				if float64(c) <= 1.2*float64(bestCands[i])+2 {
					agree++
				}
			}
			out = append(out, ConjResult{
				Dataset:    cs.Name,
				Model:      est.Name(),
				EstSeconds: estTime.Seconds(),
				PostSecs:   postTime.Seconds(),
				Candidates: cands,
				Precision:  float64(agree) / float64(nQueries),
			})
		}
	}
	return out
}

// NewMeanConjEstimator builds the Mean baseline for the conjunctive study.
func NewMeanConjEstimator(db *optimizer.ConjunctiveDB, buckets int, maxTheta float64, samples int) optimizer.AttrEstimator {
	return optimizer.NewMeanAttrEstimator(db, buckets, maxTheta, samples)
}

// RenderFig11 prints the processing-time breakdown and planning precision
// (Figures 11 and 12).
func RenderFig11(w io.Writer, res []ConjResult) {
	t := newTable("Figures 11-12: conjunctive Euclidean query optimizer",
		"Dataset", "Model", "EstTime(s)", "PostTime(s)", "Total(s)", "Candidates", "Precision")
	for _, r := range res {
		t.addf("%s\t%s\t%.4f\t%.4f\t%.4f\t%d\t%.0f%%",
			r.Dataset, r.Model, r.EstSeconds, r.PostSecs, r.EstSeconds+r.PostSecs,
			r.Candidates, r.Precision*100)
	}
	t.render(w)
}

// GPHResult holds one estimator's outcome at one threshold of the Hamming
// case study (Figure 13), or one histogram-size sweep point (Figure 14).
type GPHResult struct {
	Dataset    string
	Model      string
	Theta      int
	AllocSecs  float64
	PostSecs   float64
	Candidates int
	SizeBytes  int
}

// gphTrainSet builds the per-part regression workload: queries are the part
// views of sampled records; labels are the exact per-part cumulative counts.
func gphTrainSet(g *optimizer.GPH, ext *feature.HammingExtractor, sample []int) *core.TrainSet {
	rows := len(sample) * g.Parts
	ts := &core.TrainSet{
		X:      tensor.NewMatrix(rows, ext.Dim()),
		Labels: tensor.NewMatrix(rows, g.PartBits+1),
		TauTop: g.PartBits,
		P:      make([]float64, g.PartBits+1),
	}
	for i := range ts.P {
		ts.P[i] = 1 / float64(len(ts.P))
	}
	r := 0
	for _, id := range sample {
		q := g.Records[id]
		for p := 0; p < g.Parts; p++ {
			copy(ts.X.Row(r), ext.Encode(g.PartView(q, p)))
			lrow := ts.Labels.Row(r)
			for t := 0; t <= g.PartBits; t++ {
				lrow[t] = float64(g.PartCount(q, p, t))
			}
			r++
		}
	}
	return ts
}

// RunFig13 runs the GPH Hamming case study across thresholds for every
// estimator: Exact, CardNet-A, Histogram, Mean, DL-RMI.
func RunFig13(specs []dataset.Spec, nQueries int, thetas []int, opts Options) []GPHResult {
	if opts.QueryFrac == 0 {
		opts = DefaultOptions()
	}
	var out []GPHResult
	for _, spec := range specs {
		m := dataset.Generate(spec)
		g := optimizer.NewGPH(m.Bits, 32)
		ext := feature.NewHammingExtractor(32, 32, 32)

		// Train CardNet-A and DL-RMI on the pooled per-part workload.
		rng := rand.New(rand.NewSource(spec.Seed + 7))
		nTrain := 120
		if nTrain > len(m.Bits) {
			nTrain = len(m.Bits)
		}
		sample := rng.Perm(len(m.Bits))[:nTrain]
		split := len(sample) * 9 / 10
		train := gphTrainSet(g, ext, sample[:split])
		valid := gphTrainSet(g, ext, sample[split:])

		cn := core.New(cardNetConfig(opts, 32, true), ext.Dim())
		cn.Train(train, valid)
		cnPlan := lowerF64(cn)
		rmi := baselines.NewRMI(32)
		rmi.Fit_.Epochs = fitProfile(opts)
		rmi.Fit(train, valid)

		// Per-part histograms (the GPH paper's estimator).
		hists := make([]*baselines.HammingHistogram, g.Parts)
		for p := range hists {
			views := make([]dist.BitVector, len(m.Bits))
			for i, r := range m.Bits {
				views[i] = g.PartView(r, p)
			}
			hists[p] = baselines.NewHammingHistogram(views, 8)
		}
		histSize := 0
		for _, h := range hists {
			histSize += h.SizeBytes()
		}

		ests := []struct {
			est  optimizer.PartEstimator
			size int
		}{
			{&optimizer.ExactPartEstimator{G: g}, 0},
			{&optimizer.FuncPartEstimator{Label: NameCardNetA, Fn: cachedPartFn(g, func(p int, q dist.BitVector) []float64 {
				return cnPlan.EstimateAllTaus(ext.Encode(g.PartView(q, p)))
			})}, cn.SizeBytes()},
			{&optimizer.FuncPartEstimator{Label: "Histogram", Fn: func(p int, q dist.BitVector, t int) float64 {
				if t < 0 {
					return 0
				}
				return hists[p].Estimate(g.PartView(q, p), float64(t))
			}}, histSize},
			{optimizer.NewMeanPartEstimator(g, 24), 0},
			{&optimizer.FuncPartEstimator{Label: "DL-RMI", Fn: func(p int, q dist.BitVector, t int) float64 {
				if t < 0 {
					return 0
				}
				return rmi.Estimate(ext.Encode(g.PartView(q, p)), t)
			}}, rmi.SizeBytes()},
		}

		queryIdx := rng.Perm(len(m.Bits))[:nQueries]
		for _, theta := range thetas {
			if theta > int(spec.ThetaMax) {
				continue
			}
			for _, e := range ests {
				var alloc, post time.Duration
				cands := 0
				for _, qi := range queryIdx {
					q := m.Bits[qi]
					t0 := time.Now()
					al := g.Allocate(e.est, q, theta)
					alloc += time.Since(t0)
					t1 := time.Now()
					_, c := g.Process(q, theta, al)
					post += time.Since(t1)
					cands += c
				}
				out = append(out, GPHResult{
					Dataset:    spec.Name,
					Model:      e.est.Name(),
					Theta:      theta,
					AllocSecs:  alloc.Seconds(),
					PostSecs:   post.Seconds(),
					Candidates: cands,
					SizeBytes:  e.size,
				})
			}
		}
	}
	return out
}

// RenderFig13 prints the Hamming-optimizer results.
func RenderFig13(w io.Writer, res []GPHResult) {
	t := newTable("Figure 13: GPH Hamming query optimizer",
		"Dataset", "Model", "theta", "Alloc(s)", "Post(s)", "Total(s)", "Candidates")
	for _, r := range res {
		t.addf("%s\t%s\t%d\t%.4f\t%.4f\t%.4f\t%d",
			r.Dataset, r.Model, r.Theta, r.AllocSecs, r.PostSecs, r.AllocSecs+r.PostSecs, r.Candidates)
	}
	t.render(w)
}

// RunFig14 fixes θ at half the maximum and sweeps the histogram group size,
// reporting size vs candidates/time alongside the CardNet-A point.
func RunFig14(spec dataset.Spec, nQueries int, groupBits []int, opts Options) []GPHResult {
	if groupBits == nil {
		groupBits = []int{2, 4, 8, 16}
	}
	theta := int(spec.ThetaMax) / 2
	var out []GPHResult

	m := dataset.Generate(spec)
	g := optimizer.NewGPH(m.Bits, 32)
	rng := rand.New(rand.NewSource(spec.Seed + 8))
	queryIdx := rng.Perm(len(m.Bits))[:nQueries]

	run := func(name string, est optimizer.PartEstimator, size int) {
		var alloc, post time.Duration
		cands := 0
		for _, qi := range queryIdx {
			q := m.Bits[qi]
			t0 := time.Now()
			al := g.Allocate(est, q, theta)
			alloc += time.Since(t0)
			t1 := time.Now()
			_, c := g.Process(q, theta, al)
			post += time.Since(t1)
			cands += c
		}
		out = append(out, GPHResult{Dataset: spec.Name, Model: name, Theta: theta,
			AllocSecs: alloc.Seconds(), PostSecs: post.Seconds(), Candidates: cands, SizeBytes: size})
	}

	for _, gb := range groupBits {
		hists := make([]*baselines.HammingHistogram, g.Parts)
		size := 0
		for p := range hists {
			views := make([]dist.BitVector, len(m.Bits))
			for i, r := range m.Bits {
				views[i] = g.PartView(r, p)
			}
			hists[p] = baselines.NewHammingHistogram(views, gb)
			size += hists[p].SizeBytes()
		}
		run(fmt.Sprintf("Histogram(g=%d)", gb),
			&optimizer.FuncPartEstimator{Label: "Histogram", Fn: func(p int, q dist.BitVector, t int) float64 {
				if t < 0 {
					return 0
				}
				return hists[p].Estimate(g.PartView(q, p), float64(t))
			}}, size)
	}

	// Reference points.
	ext := feature.NewHammingExtractor(32, 32, 32)
	nTrain := 80
	if nTrain > len(m.Bits) {
		nTrain = len(m.Bits)
	}
	sample := rng.Perm(len(m.Bits))[:nTrain]
	split := len(sample) * 9 / 10
	cn := core.New(cardNetConfig(opts, 32, true), ext.Dim())
	cn.Train(gphTrainSet(g, ext, sample[:split]), gphTrainSet(g, ext, sample[split:]))
	cnPlan := lowerF64(cn)
	run(NameCardNetA, &optimizer.FuncPartEstimator{Label: NameCardNetA,
		Fn: cachedPartFn(g, func(p int, q dist.BitVector) []float64 {
			return cnPlan.EstimateAllTaus(ext.Encode(g.PartView(q, p)))
		})}, cn.SizeBytes())
	run("Mean", optimizer.NewMeanPartEstimator(g, 24), 0)
	return out
}

// RenderFig14 prints the histogram-size sweep.
func RenderFig14(w io.Writer, res []GPHResult) {
	t := newTable("Figure 14: GPH — histogram size sweep (theta = 50% max)",
		"Dataset", "Model", "Size(KB)", "Alloc(s)", "Post(s)", "Total(s)", "Candidates")
	for _, r := range res {
		t.addf("%s\t%s\t%.1f\t%.4f\t%.4f\t%.4f\t%d",
			r.Dataset, r.Model, float64(r.SizeBytes)/1024, r.AllocSecs, r.PostSecs,
			r.AllocSecs+r.PostSecs, r.Candidates)
	}
	t.render(w)
}

// cachedPartFn memoizes a per-(query, part) all-thresholds estimate vector:
// the DP allocator probes every threshold of a part in sequence, and
// CardNet-A emits all of them in a single fused forward pass (footnote 3 of
// the paper: all τmax+1 embeddings are produced together precisely to favour
// this implementation).
func cachedPartFn(g *optimizer.GPH, all func(p int, q dist.BitVector) []float64) func(int, dist.BitVector, int) float64 {
	lastPart := -1
	var lastQ *uint64
	var vec []float64
	return func(p int, q dist.BitVector, t int) float64 {
		if t < 0 {
			return 0
		}
		if p != lastPart || lastQ != &q.Bits[0] {
			vec = all(p, q)
			lastPart = p
			lastQ = &q.Bits[0]
		}
		if t >= len(vec) {
			t = len(vec) - 1
		}
		return vec[t]
	}
}
