package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDims matches the trainbench GFLOP/s harness (M×K · (N×K)ᵀ).
const (
	benchM = 256
	benchK = 512
	benchN = 512
)

// abtBenchRows are the left-operand row counts of the ABT kernel benches:
// the trainbench batch, plus the 1- and 2-row batches a lightly loaded
// server forms, which run the leftover-row path rather than 4-row tiles.
var abtBenchRows = []int{benchM, 2, 1}

// reportGFLOPS attaches a GFLOP/s metric (2·M·N·K flops per op) so
// `make bench-kernels` can print the f64/f32/int8 table straight from the
// benchmark output.
func reportGFLOPS(b *testing.B, m int) {
	flops := 2 * float64(m) * float64(benchN) * float64(benchK)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchABT times the call setup returns, as one sub-benchmark per
// abtBenchRows entry; setup builds an M×benchK input and benchN×benchK
// weights from a fresh seeded source.
func benchABT(b *testing.B, setup func(rng *rand.Rand, m int) func()) {
	for _, m := range abtBenchRows {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			kernel := setup(rand.New(rand.NewSource(1)), m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel()
			}
			reportGFLOPS(b, m)
		})
	}
}

func BenchmarkKernelABT_f64(b *testing.B) {
	benchABT(b, func(rng *rand.Rand, m int) func() {
		a := randMatrix(rng, m, benchK)
		w := randMatrix(rng, benchN, benchK)
		out := NewMatrix(m, benchN)
		return func() { MatMulABT(a, w, out) }
	})
}

func BenchmarkKernelABT_f32(b *testing.B) {
	benchABT(b, func(rng *rand.Rand, m int) func() {
		a := Demote32(randMatrix(rng, m, benchK))
		w := Demote32(randMatrix(rng, benchN, benchK))
		out := NewMatrix32(m, benchN)
		return func() { MatMulABT32(a, w, out) }
	})
}

func BenchmarkKernelABT_int8(b *testing.B) {
	benchABT(b, func(rng *rand.Rand, m int) func() {
		a := QuantizeRows(Demote32(randMatrix(rng, m, benchK)), nil)
		w := QuantizeRows(Demote32(randMatrix(rng, benchN, benchK)), nil)
		out := NewMatrix32(m, benchN)
		return func() { MatMulABTQ8(a, w, out) }
	})
}

// BenchmarkKernelInt8Quantize isolates the dynamic activation-quantization
// cost the int8 tier pays per layer on top of the matmul itself.
func BenchmarkKernelInt8Quantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Demote32(randMatrix(rng, benchM, benchK))
	q := NewQuantMatrix(benchM, benchK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeRows(a, q)
	}
}

// zeroSkipOperands builds a MatMul left operand with the given fraction of
// exact zeros scattered at random — the regime where matMulRows' zero-skip
// branch either pays (sparse training gradients) or hurts (dense inference
// activations, where it only mispredicts).
func zeroSkipOperands(zeroFrac float64) (a, bm, out *Matrix) {
	rng := rand.New(rand.NewSource(3))
	a = randMatrix(rng, benchM, benchK)
	for i := range a.Data {
		if rng.Float64() < zeroFrac {
			a.Data[i] = 0
		}
	}
	bm = randMatrix(rng, benchK, benchN)
	return a, bm, NewMatrix(benchM, benchN)
}

func BenchmarkZeroSkip(b *testing.B) {
	cases := []struct {
		name     string
		zeroFrac float64
		kernel   func(a, b, out *Matrix) *Matrix
	}{
		// Dense activations: the skip is pure branch-misprediction overhead.
		{"dense/branchy", 0, MatMul},
		{"dense/branchfree", 0, MatMulDense},
		// Sparse training-style operands: the skip elides whole inner sweeps.
		{"sparse90/branchy", 0.9, MatMul},
		{"sparse90/branchfree", 0.9, MatMulDense},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a, bm, out := zeroSkipOperands(c.zeroFrac)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.kernel(a, bm, out)
			}
			reportGFLOPS(b, benchM)
		})
	}
}
