// Package tensor provides the dense float64 vector and matrix kernels used
// by the neural-network, boosting, and estimator packages (the Φ/Φ′ and VAE
// networks of the paper's Sections 5–7 bottom out here). It is deliberately
// small: the models in this repository only need contiguous row-major
// matrices, a handful of BLAS-1/2/3 style routines, and seeded random
// initialization. The one kernel the float32 inference tier needs, the ABT
// product, is written once over both element types (ABT, Mat). The training
// backward kernels (MatMul, MatMulATBAdd) run their inner loops through
// Axpy, which is AVX assembly where the CPU has it and a Go loop elsewhere, with
// the same bits either way. The training kernels (PMatMul and friends)
// optionally fan out over a shared help-first worker pool sized by
// SetWorkers, which internal/core's data-parallel trainer also dispatches
// on.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense float64 vector.
type Vector = []float64

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// RowSlice returns rows [lo, hi) as a matrix view aliasing the storage of m
// (rows are contiguous, so no copy is needed). Writes through the view are
// visible in m; the data-parallel trainer uses disjoint views as zero-copy
// minibatch shards.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: rowslice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul computes out = a·b, allocating out when nil. a is r×k, b is k×c.
func MatMul(a, b, out *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out == nil {
		out = NewMatrix(a.Rows, b.Cols)
	} else {
		if out.Rows != a.Rows || out.Cols != b.Cols {
			panic("tensor: matmul out has wrong shape")
		}
		out.Zero()
	}
	matMulRows(a, b, out, 0, a.Rows)
	return out
}

// matMulRows runs the MatMul inner loops over output rows [lo, hi), which
// must already be zeroed. The ikj loop order makes each (i, k) step one
// contiguous saxpy, out_i += a_ik·b_k, through the vector Axpy body; every
// output element still adds its products in ascending k. Row blocks are
// independent, so the parallel variant shards this helper and stays
// bit-identical to the sequential kernel.
//
// The zero-skip below is deliberate and training/sparse-only: MatMul's
// operands on the training path are binary feature rows and ReLU-gated
// gradients, where entire inner sweeps vanish often enough to pay for the
// test. On dense inference activations the skip almost never fires and the
// data-dependent branch defeats the predictor; the inference kernel (ABT)
// never zero-skips. BenchmarkZeroSkip measures the gap both ways.
func matMulRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		oi := out.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			Axpy(aik, b.Row(k), oi)
		}
	}
}

// abtRowTile is the row-block size of the ABT kernel: b (typically a weight
// matrix larger than L1/L2) is streamed once per block of abtRowTile rows of
// a instead of once per row, which is what makes batched inference faster
// than per-sample inference on memory-bound layers. 8 rows of a few hundred
// float64s stay resident in L1 across the whole sweep of b.
const abtRowTile = 8

// Float is the element type of a Mat: float64 for training and the f64
// inference tier, float32 for the f32 tier.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix of either precision, the operand type of
// the ABT kernel. Matrix has Mat[float64]'s layout, so a *Matrix converts to
// a *Mat[float64] by pointer without a copy; Matrix stays a distinct type
// because gob-encoded train sets and checkpoints carry its name.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T // len == Rows*Cols, row-major
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// ABT computes out = a·bᵀ, or out += a·bᵀ with add, where a is r×k, b is
// c×k and out is a preallocated r×c. It runs inline on the calling
// goroutine; PMatMulABT shards the same body across the worker pool.
//
// Each element is Dot(a.Row(i), b.Row(j)) — accumulated in the same order
// regardless of batch size — so a B-row product is bit-identical to B
// separate single-row products, and an add gains exactly that one Dot.
// Every product runs dot4: four dot products over a shared row in one loop.
// Each accumulator performs exactly the per-row Dot sequence, but the four
// addition chains are independent, so the CPU overlaps them instead of
// stalling on one chain's add latency. Groups of four input rows share each
// weight row; the rows left over (a whole serving batch of 1–3 rows, or the
// tail of a larger one) each share themselves with four weight rows at a
// time instead, so a lone request gets the same overlap. Row tiling
// additionally streams each weight row once per tile rather than once per
// input row. The inner loops carry no data-dependent branches (see
// matMulRows for why the training kernel zero-skips and this one does not).
func ABT[T Float](a, b, out *Mat[T], add bool) {
	checkABT(a, b, out)
	abtRows(a, b, out, 0, a.Rows, add)
}

// checkABT panics unless a and b share their column count and out is
// a.Rows×b.Rows.
func checkABT[T Float](a, b, out *Mat[T]) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %d×%d · (%d×%d)ᵀ into %d×%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

// abtRows runs the tiled ABT loops over output rows [lo, hi), storing each
// product (or, with add, adding it onto out). Each output element is a
// per-row Dot whose accumulation order is independent of the tile
// boundaries, so any row sharding (including PMatMulABT's) produces
// bit-identical results. Leftover rows pass the weight rows as dot4's four
// left operands: products commute exactly, so dot4(b_j…, a_i) still equals
// Dot(a_i, b_j) bit for bit.
func abtRows[T Float](a, b, out *Mat[T], lo, hi int, add bool) {
	for i0 := lo; i0 < hi; i0 += abtRowTile {
		i1 := i0 + abtRowTile
		if i1 > hi {
			i1 = hi
		}
		i4 := i0 + (i1-i0)&^3
		for j := 0; j < b.Rows && i0 < i4; j++ {
			bj := b.Row(j)
			for i := i0; i < i4; i += 4 {
				s0, s1, s2, s3 := dot4(a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3), bj)
				if add {
					out.Row(i)[j] += s0
					out.Row(i + 1)[j] += s1
					out.Row(i + 2)[j] += s2
					out.Row(i + 3)[j] += s3
				} else {
					out.Row(i)[j] = s0
					out.Row(i + 1)[j] = s1
					out.Row(i + 2)[j] = s2
					out.Row(i + 3)[j] = s3
				}
			}
		}
		for i := i4; i < i1; i++ {
			ai, oi := a.Row(i), out.Row(i)
			j := 0
			for ; j+3 < b.Rows; j += 4 {
				s0, s1, s2, s3 := dot4(b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3), ai)
				if add {
					oi[j] += s0
					oi[j+1] += s1
					oi[j+2] += s2
					oi[j+3] += s3
				} else {
					oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
				}
			}
			for ; j < b.Rows; j++ {
				if add {
					oi[j] += Dot(ai, b.Row(j))
				} else {
					oi[j] = Dot(ai, b.Row(j))
				}
			}
		}
	}
}

// dot4 returns (Dot(a0,b), Dot(a1,b), Dot(a2,b), Dot(a3,b)). Each sum uses
// the identical expression and element order as Dot, so the results are
// bit-equal to four separate Dot calls.
func dot4[T Float](a0, a1, a2, a3, b []T) (s0, s1, s2, s3 T) {
	if len(b) == 0 {
		return
	}
	_ = a0[len(b)-1]
	_ = a1[len(b)-1]
	_ = a2[len(b)-1]
	_ = a3[len(b)-1]
	for k, v := range b {
		s0 += a0[k] * v
		s1 += a1[k] * v
		s2 += a2[k] * v
		s3 += a3[k] * v
	}
	return
}

// Dot returns the inner product of two equal-length vectors.
func Dot[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s T
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x, each element as y[i] = x[i]*alpha + y[i]; x
// and y must not partially overlap. It is the one saxpy body of the
// training kernels: matMulRows and matMulATBAddCols run through it too.
//
// Where the CPU and OS support AVX (amd64, not built with -tags purego) the
// body is the vector loop in axpy_amd64.s. Each lane runs the two IEEE
// operations of the Go loop below, a multiply then an add, never a fused
// multiply-add, with the same operands in the same order (x before alpha,
// the product before y). So the two bodies agree bit for bit, NaN payloads
// included, and no trained bit depends on which one ran.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	if useAVX {
		axpyAVX(alpha, x, y)
		return
	}
	for i, v := range x {
		y[i] += v * alpha
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddBias adds the bias vector to every row of m in place.
func AddBias(m *Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, b := range bias {
			ri[j] += b
		}
	}
}

// ColSums accumulates per-column sums of m into out (len m.Cols).
func ColSums(m *Matrix, out []float64) {
	if len(out) != m.Cols {
		panic("tensor: colsums length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, v := range row {
			out[j] += v
		}
	}
}

// RandUniform fills x with uniform values in [lo, hi).
func RandUniform(rng *rand.Rand, x []float64, lo, hi float64) {
	for i := range x {
		x[i] = lo + rng.Float64()*(hi-lo)
	}
}

// RandNormal fills x with N(mean, std²) values.
func RandNormal(rng *rand.Rand, x []float64, mean, std float64) {
	for i := range x {
		x[i] = mean + rng.NormFloat64()*std
	}
}

// GlorotUniform fills a fanOut×fanIn weight slice with Glorot/Xavier uniform
// initialization, the standard choice for the tanh/sigmoid/ReLU stacks here.
func GlorotUniform(rng *rand.Rand, x []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	RandUniform(rng, x, -limit, limit)
}

// Concat concatenates vectors into a fresh slice ([a;b;...] in paper
// notation).
func Concat(vs ...[]float64) []float64 {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make([]float64, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// L2Norm returns the Euclidean norm of x.
func L2Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_i |x[i]|, or 0 for an empty slice.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
