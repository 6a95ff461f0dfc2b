// Entity-matching blocking rules (paper Introduction example 2 and Section
// 9.11.1): a blocking rule is a conjunction of similarity predicates over
// multiple attributes. The optimizer estimates each predicate's cardinality,
// drives the index lookup with the most selective one, and verifies the rest
// on the fly — exactly the conjunctive case study, shown here on an
// author-matching schema (name, affiliation, research-interest embeddings).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cardnet/internal/bench"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/infer"
	"cardnet/internal/optimizer"
)

func main() {
	log.SetFlags(0)

	attrNames := []string{"name", "affiliations", "research interests"}
	n, dim := 1200, 16
	attrs := make([][][]float64, len(attrNames))
	for a := range attrs {
		attrs[a] = dataset.Vectors(n, dim, 4+a, 0.05+0.06*float64(a), true, int64(100+a))
	}
	db := optimizer.NewConjunctiveDB(attrs)

	// One CardNet-A estimator per attribute.
	opts := bench.DefaultOptions()
	type attrEst struct {
		plan   *infer.Plan
		bundle *bench.Bundle
	}
	ests := make([]attrEst, len(attrs))
	for a := range attrs {
		s := bench.BuildEuclideanSuite(attrNames[a], attrs[a], 0.5, opts)
		m := core.New(quickCfg(s.Bundle.TauMax), s.Bundle.Train.X.Cols)
		m.Train(s.Bundle.Train, s.Bundle.Valid)
		plan, err := infer.Lower(m, infer.PrecisionF64)
		if err != nil {
			log.Fatal(err)
		}
		ests[a] = attrEst{plan: plan, bundle: s.Bundle}
	}
	planner := &optimizer.FuncAttrEstimator{Label: "CardNet-A",
		Fn: func(a int, q []float64, theta float64) float64 {
			b := ests[a].bundle
			return ests[a].plan.Estimate(b.EncodeRecord(q), b.ThresholdOf(theta))
		}}

	// Blocking rule: "EU(name) <= 0.25 AND EU(affiliations) <= 0.4 AND
	// EU(research interests) <= 0.45" around candidate records.
	thetas := []float64{0.25, 0.4, 0.45}
	rng := rand.New(rand.NewSource(9))
	agree, total := 0, 0
	var totalCands, oracleCands int
	for i := 0; i < 30; i++ {
		id := rng.Intn(n)
		preds := make([]optimizer.Predicate, len(attrs))
		for a := range preds {
			preds[a] = optimizer.Predicate{Attr: a, Query: attrs[a][id], Theta: thetas[a]}
		}
		pick := optimizer.Plan(planner, preds)
		best := db.BestPick(preds)
		result, cands := db.Process(preds, pick)
		_, bestCands := db.Process(preds, best)
		totalCands += cands
		oracleCands += bestCands
		if pick == best {
			agree++
		}
		total++
		if i < 5 {
			fmt.Printf("rule %2d: drive with %-18s candidates=%4d matches=%d\n",
				i, attrNames[preds[pick].Attr], cands, len(result))
		}
	}
	fmt.Printf("\nplanning precision: %d/%d (%.0f%%)\n", agree, total, 100*float64(agree)/float64(total))
	fmt.Printf("candidates: planned=%d oracle=%d (overhead %.1f%%)\n",
		totalCands, oracleCands, 100*float64(totalCands-oracleCands)/float64(oracleCands))
}

func quickCfg(tauMax int) core.Config {
	cfg := core.DefaultConfig(tauMax)
	cfg.Accel = true
	cfg.VAEHidden = []int{32}
	cfg.VAELatent = 8
	cfg.VAEEpochs = 6
	cfg.PhiHidden = []int{48, 32}
	cfg.ZDim = 16
	cfg.Epochs = 18
	return cfg
}
