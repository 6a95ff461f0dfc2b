package infer

import (
	"fmt"
	"math/rand"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// BenchmarkForward times one forward pass per op at serving batch sizes on
// paper-scale models (PaperConfig(20,16), 64-bit x, one tensor worker): the
// model's own nn forward ("core") against the f64 and f32 plans, for
// CardNet-A and standard CardNet. Run with
//
//	go test ./internal/infer -run '^$' -bench Forward
func BenchmarkForward(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	for _, accel := range []bool{true, false} {
		cfg := core.PaperConfig(20, 16)
		cfg.Accel = accel
		m := core.New(cfg, 64)
		arch := "cardnet"
		if accel {
			arch = "cardnet-a"
		}
		paths := []struct {
			name string
			run  func(*tensor.Matrix) *tensor.Matrix
		}{{"core", m.EstimateAllTausBatch}}
		for _, tier := range []Precision{PrecisionF64, PrecisionF32} {
			p, err := Lower(m, tier)
			if err != nil {
				b.Fatal(err)
			}
			paths = append(paths, struct {
				name string
				run  func(*tensor.Matrix) *tensor.Matrix
			}{string(tier), p.EstimateAllTausBatch})
		}
		for _, batch := range []int{1, 2, 8} {
			xs := randomBinary(rand.New(rand.NewSource(1)), batch, 64)
			for _, path := range paths {
				b.Run(fmt.Sprintf("%s/%s/b%d", arch, path.name, batch), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						path.run(xs)
					}
				})
			}
		}
	}
}
