package infer

import (
	"fmt"
	"math/rand"
	"testing"

	"cardnet/internal/core"
)

// TestPlanForwardAllocs pins the plan allocation contract: once a plan's
// scratch pool is warm, a forward at either tier allocates only its result,
// a matrix header and its data, at the default tensor worker count.
func TestPlanForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random, so forwards reallocate")
	}
	const want = 2 // the result's tensor.Matrix header and its Data
	for _, accel := range []bool{true, false} {
		// Paper-width layers, wide enough that a sharded ABT would fan out;
		// a small τmax keeps the standard encoder's τ+1 passes quick.
		cfg := core.PaperConfig(4, 16)
		cfg.Accel = accel
		m := core.New(cfg, 64)
		for _, tier := range []Precision{PrecisionF32, PrecisionF64} {
			p, err := Lower(m, tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 4, 32} {
				xs := randomBinary(rand.New(rand.NewSource(int64(batch))), batch, m.InDim)
				name := fmt.Sprintf("accel=%v/%s/b%d", accel, tier, batch)
				t.Run(name, func(t *testing.T) {
					got := testing.AllocsPerRun(10, func() { p.EstimateAllTausBatch(xs) })
					if got != want {
						t.Fatalf("%v allocations per forward, want %d", got, want)
					}
				})
			}
		}
	}
}
