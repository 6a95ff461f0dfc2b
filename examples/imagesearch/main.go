// Image search candidate budgeting (paper Introduction, example 1): images
// are hashed to binary codes; a Hamming selection with threshold 16 yields
// candidates that an expensive image-level verifier must re-check. The
// cardinality estimate predicts the verification workload — and hence the
// end-to-end latency — before running the selection, which is what a service
// needs to quote an SLA.
package main

import (
	"fmt"
	"log"
	"time"

	"cardnet/internal/bench"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/infer"
)

// verifyCostPerCandidate models the image-level CNN re-check latency.
const verifyCostPerCandidate = 2 * time.Millisecond

func main() {
	log.SetFlags(0)

	// HashNet-style codes for an image corpus (synthetic; see DESIGN.md).
	spec := dataset.DefaultsByName()["HM-ImageNet"]
	opts := bench.DefaultOptions()
	opts.NOverride = 1500
	suite := bench.BuildSuite(spec, opts)
	b := suite.Bundle

	cfg := core.DefaultConfig(b.TauMax)
	cfg.Accel = true
	model := core.New(cfg, b.Train.X.Cols)
	model.Train(b.Train, b.Valid)
	plan, err := infer.Lower(model, infer.PrecisionF64)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query  theta  est.candidates  actual  predicted-verify-time")
	var worst float64
	for _, p := range b.Points {
		if p.Theta != 16 {
			continue
		}
		est := plan.Estimate(b.TestX.Row(p.Query), p.Tau)
		budget := time.Duration(est) * verifyCostPerCandidate
		fmt.Printf("%5d  %5.0f  %14.1f  %6.0f  %v\n", p.Query, p.Theta, est, p.Actual, budget)
		ratio := (est + 1) / (p.Actual + 1)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > worst {
			worst = ratio
		}
	}
	fmt.Printf("\nworst per-query budget misestimate: %.2fx\n", worst)
}
