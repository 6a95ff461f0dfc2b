package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Kernel bench dimensions: an M-row batch through a K×N (or N×K) weight.
const (
	benchM = 256
	benchK = 512
	benchN = 512
)

// abtBenchRows are the left-operand row counts of the ABT kernel benches:
// the 256-row harness batch, the 32-row training batch, one four-row group,
// and the 1- and 2-row batches a lightly loaded server forms, which run as
// one group padded with zero rows on the vector tile, and as leftover rows
// (dot4Pairs) without it.
var abtBenchRows = []int{benchM, 32, 4, 2, 1}

// reportGFLOPS attaches a GFLOP/s metric (2·M·N·K flops per op) so
// `make bench-kernels` can print the kernel table straight from the
// benchmark output, and returns it.
func reportGFLOPS(b *testing.B, m int) float64 {
	flops := 2 * float64(m) * float64(benchN) * float64(benchK)
	gflops := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFLOP/s")
	return gflops
}

// benchKernel times the call setup returns, as one sub-benchmark per entry
// of rows; setup builds M-row operands from a fresh seeded source. For a
// kernel that streams a benchN×benchK weight of elem-byte values once per
// call it also reports, at M ≤ 2, the speed as a share of the bandwidth
// roof: the read bandwidth over that many bytes times 2M flops per weight.
// elem 0 reports no roof.
func benchKernel(b *testing.B, rows []int, elem int, setup func(rng *rand.Rand, m int) func()) {
	for _, m := range rows {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			kernel := setup(rand.New(rand.NewSource(1)), m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel()
			}
			gflops := reportGFLOPS(b, m)
			if elem > 0 && m <= 2 {
				b.StopTimer()
				roof := readGBs(benchN*benchK*elem) * 2 * float64(m) / float64(elem)
				b.ReportMetric(100*gflops/roof, "%roof")
			}
		})
	}
}

// readGBs returns the read bandwidth in GB/s over a buffer of n bytes, the
// best of five 20 ms rounds of scanning it with bytes.IndexByte (the
// runtime's widest vector loads) after one warming pass.
func readGBs(n int) float64 {
	buf := make([]byte, n)
	bytes.IndexByte(buf, 1)
	best := 0.0
	for round := 0; round < 5; round++ {
		start, passes := time.Now(), 0
		for time.Since(start) < 20*time.Millisecond {
			bytes.IndexByte(buf, 1)
			passes++
		}
		best = max(best, float64(n)*float64(passes)/time.Since(start).Seconds()/1e9)
	}
	return best
}

// BenchmarkRoofline reads a buffer at the two working sets the ABT roof
// depends on: 1 MiB, inside one core's L2, and 4.8 MB, the f64 weights of
// CardNet-A PaperConfig(20,16), which a batch-1 forward streams in full.
func BenchmarkRoofline(b *testing.B) {
	for _, ws := range []struct {
		name  string
		bytes int
	}{{"ws=1MiB", 1 << 20}, {"ws=4.8MB", 4_800_000}} {
		b.Run(ws.name, func(b *testing.B) {
			buf := make([]byte, ws.bytes)
			bytes.IndexByte(buf, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bytes.IndexByte(buf, 1)
			}
			b.ReportMetric(float64(ws.bytes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

func BenchmarkKernelABT_f64(b *testing.B) {
	benchKernel(b, abtBenchRows, 8, func(rng *rand.Rand, m int) func() {
		a := (*Mat[float64])(randMatrix(rng, m, benchK))
		w := (*Mat[float64])(randMatrix(rng, benchN, benchK))
		out := (*Mat[float64])(NewMatrix(m, benchN))
		return func() { ABT(a, w, out, false) }
	})
}

func BenchmarkKernelABT_f32(b *testing.B) {
	benchKernel(b, abtBenchRows, 4, func(rng *rand.Rand, m int) func() {
		a := Demote32(randMatrix(rng, m, benchK))
		w := Demote32(randMatrix(rng, benchN, benchK))
		out := NewMatrix32(m, benchN)
		return func() { ABT(a, w, out, false) }
	})
}

// trainBenchRows are the row counts of the training-backward kernel benches:
// the default training minibatch and the 256-row harness batch.
var trainBenchRows = []int{32, benchM}

// trainZeroFrac is the share of exact zeros in the left operand (dY) of both
// backward kernels measured during fixture training (ReLU-gated gradients);
// the zero-skip elides those rows' saxpy sweeps, so the kernels run in this
// regime rather than the dense one.
const trainZeroFrac = 0.45

// benchTrainKernel runs benchKernel over trainBenchRows twice: dense, as
// M=<rows>, and with trainZeroFrac of dY zeroed, as zeros=45%/M=<rows>.
// GFLOP/s counts the skipped flops too, so the two cases compare directly.
func benchTrainKernel(b *testing.B, setup func(rng *rand.Rand, m int, zeroFrac float64) func()) {
	benchKernel(b, trainBenchRows, 0, func(rng *rand.Rand, m int) func() { return setup(rng, m, 0) })
	b.Run(fmt.Sprintf("zeros=%.0f%%", trainZeroFrac*100), func(b *testing.B) {
		benchKernel(b, trainBenchRows, 0, func(rng *rand.Rand, m int) func() { return setup(rng, m, trainZeroFrac) })
	})
}

// sprinkleZeros sets each element of m to an exact zero with probability
// frac.
func sprinkleZeros(rng *rand.Rand, m *Matrix, frac float64) *Matrix {
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = 0
		}
	}
	return m
}

// BenchmarkKernelMatMul times the Dense backward dX = dY·W product (MatMul,
// zero-skip included).
func BenchmarkKernelMatMul(b *testing.B) {
	benchTrainKernel(b, func(rng *rand.Rand, m int, zeroFrac float64) func() {
		dy := sprinkleZeros(rng, randMatrix(rng, m, benchK), zeroFrac)
		w := randMatrix(rng, benchK, benchN)
		out := NewMatrix(m, benchN)
		return func() { MatMul(dy, w, out) }
	})
}

// BenchmarkKernelATBAdd times the Dense weight-gradient accumulation
// dW += dYᵀ·X (MatMulATBAdd) over an M-row batch.
func BenchmarkKernelATBAdd(b *testing.B) {
	benchTrainKernel(b, func(rng *rand.Rand, m int, zeroFrac float64) func() {
		dy := sprinkleZeros(rng, randMatrix(rng, m, benchK), zeroFrac)
		x := randMatrix(rng, m, benchN)
		dw := NewMatrix(benchK, benchN)
		return func() { MatMulATBAdd(dy, x, dw) }
	})
}

// BenchmarkAxpy times one saxpy (y += alpha·x) at the row lengths fixture
// training runs it on: a 60-wide head, a 315-wide and a 512-wide layer.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{60, 315, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := randMatrix(rng, 1, n).Data, make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
			b.ReportMetric(2*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// adamBenchSizes are the parameter vector lengths of the perfbench fixture
// (CardNet-A, PaperConfig(20, 16) on 64-bit vectors): 1,126,070 in all.
var adamBenchSizes = []int{16384, 256, 32768, 128, 16384, 128, 2048, 16, 2048, 16,
	2048, 128, 16384, 128, 32768, 256, 16384, 64, 105, 40960, 512, 161280, 315,
	262144, 512, 161280, 315, 131072, 256, 80640, 315, 65536, 256, 80640, 315, 1260, 21}

// BenchmarkAdamStep times one optimizer step over the fixture's parameters,
// AdamUpdate once per vector as nn.Adam.Step calls it, with training's
// coefficients. Each step starts from the same random gradients (restored
// off the clock, since the step clears them). GB/s counts the 64 bytes a
// parameter moves: value, grad, m and v each read and written.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var value, grad, m, v, grad0 [][]float64
	params := 0
	for _, n := range adamBenchSizes {
		value = append(value, randMatrix(rng, 1, n).Data)
		grad0 = append(grad0, randMatrix(rng, 1, n).Data)
		grad = append(grad, make([]float64, n))
		m = append(m, make([]float64, n))
		v = append(v, make([]float64, n))
		params += n
	}
	k := AdamCoeffs{Beta1: 0.9, Beta2: 0.999, LR: 1e-3, Eps: 1e-8,
		C1: 1 - math.Pow(0.9, 7), C2: 1 - math.Pow(0.999, 7)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range grad {
			copy(grad[j], grad0[j])
		}
		b.StartTimer()
		for j := range value {
			AdamUpdate(value[j], grad[j], m[j], v[j], k)
		}
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(sec*1e9/float64(b.N)/float64(params), "ns/param")
	b.ReportMetric(64*float64(params)*float64(b.N)/sec/1e9, "GB/s")
}

// zeroSkipOperands builds a MatMul left operand with the given fraction of
// exact zeros scattered at random — the regime where matMulRows' zero-skip
// branch either pays (sparse training gradients) or hurts (dense inference
// activations, where it only mispredicts).
func zeroSkipOperands(zeroFrac float64) (a, bm, out *Matrix) {
	rng := rand.New(rand.NewSource(3))
	a = sprinkleZeros(rng, randMatrix(rng, benchM, benchK), zeroFrac)
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
