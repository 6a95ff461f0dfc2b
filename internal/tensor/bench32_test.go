package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel bench dimensions: an M-row batch through a K×N (or N×K) weight.
const (
	benchM = 256
	benchK = 512
	benchN = 512
)

// abtBenchRows are the left-operand row counts of the ABT kernel benches:
// the 256-row harness batch, plus the 1- and 2-row batches a lightly loaded
// server forms, which run the leftover-row path rather than 4-row tiles.
var abtBenchRows = []int{benchM, 2, 1}

// reportGFLOPS attaches a GFLOP/s metric (2·M·N·K flops per op) so
// `make bench-kernels` can print the kernel table straight from the
// benchmark output.
func reportGFLOPS(b *testing.B, m int) {
	flops := 2 * float64(m) * float64(benchN) * float64(benchK)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchKernel times the call setup returns, as one sub-benchmark per entry
// of rows; setup builds M-row operands from a fresh seeded source.
func benchKernel(b *testing.B, rows []int, setup func(rng *rand.Rand, m int) func()) {
	for _, m := range rows {
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
	benchKernel(b, abtBenchRows, func(rng *rand.Rand, m int) func() {
		a := (*Mat[float64])(randMatrix(rng, m, benchK))
		w := (*Mat[float64])(randMatrix(rng, benchN, benchK))
		out := (*Mat[float64])(NewMatrix(m, benchN))
		return func() { ABT(a, w, out, false) }
	})
}

func BenchmarkKernelABT_f32(b *testing.B) {
	benchKernel(b, abtBenchRows, func(rng *rand.Rand, m int) func() {
		a := Demote32(randMatrix(rng, m, benchK))
		w := Demote32(randMatrix(rng, benchN, benchK))
		out := NewMatrix32(m, benchN)
		return func() { ABT(a, w, out, false) }
	})
}

// trainBenchRows are the row counts of the training-backward kernel benches:
// the default training minibatch and the 256-row harness batch.
var trainBenchRows = []int{32, benchM}

// BenchmarkKernelMatMul times the Dense backward dX = dY·W product (MatMul,
// zero-skip included) on dense operands.
func BenchmarkKernelMatMul(b *testing.B) {
	benchKernel(b, trainBenchRows, func(rng *rand.Rand, m int) func() {
		dy := randMatrix(rng, m, benchK)
		w := randMatrix(rng, benchK, benchN)
		out := NewMatrix(m, benchN)
		return func() { MatMul(dy, w, out) }
	})
}

// BenchmarkKernelATBAdd times the Dense weight-gradient accumulation
// dW += dYᵀ·X (MatMulATBAdd) over an M-row batch.
func BenchmarkKernelATBAdd(b *testing.B) {
	benchKernel(b, trainBenchRows, func(rng *rand.Rand, m int) func() {
		dy := randMatrix(rng, m, benchK)
		x := randMatrix(rng, m, benchN)
		dw := NewMatrix(benchK, benchN)
		return func() { MatMulATBAdd(dy, x, dw) }
	})
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
		abt      bool // branch-free ABT against the transposed operand
	}{
		// Dense activations: the skip is pure branch-misprediction overhead.
		{"dense/branchy", 0, false},
		{"dense/branchfree", 0, true},
		// Sparse training-style operands: the skip elides whole inner sweeps.
		{"sparse90/branchy", 0.9, false},
		{"sparse90/branchfree", 0.9, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a, bm, out := zeroSkipOperands(c.zeroFrac)
			x, bt, o := (*Mat[float64])(a), (*Mat[float64])(transpose(bm)), (*Mat[float64])(out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.abt {
					ABT(x, bt, o, false)
				} else {
					MatMul(a, bm, out)
				}
			}
			reportGFLOPS(b, benchM)
		})
	}
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Set(j, i, v)
		}
	}
	return t
}
