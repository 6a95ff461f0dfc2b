// Package tensor provides the dense float64 vector and matrix kernels used
// by the neural-network, boosting, and estimator packages (the Φ/Φ′ and VAE
// networks of the paper's Sections 5–7 bottom out here). It is deliberately
// small: the models in this repository only need contiguous row-major
// matrices, a handful of BLAS-1/2/3 style routines, and seeded random
// initialization. The forward product every dense layer and inference plan
// runs, ABT (out = a·bᵀ), is written once over both element types (ABT,
// Mat). Where the CPU has AVX, it runs an assembly register tile over groups
// of four input rows and quads of weight rows. A one-row forward may instead
// run VecMat over the transposed weight, which skips the weight rows of zero
// inputs, with ABT's bits, in AVX assembly too. The training backward kernels
// (MatMul, MatMulATBAdd) run their inner loops through Axpy, AVX assembly
// too, and so does the optimizer's per-parameter update, AdamUpdate.
// Elsewhere Go loops run them, with the same bits either way, NaN payloads
// included. The training kernels (PMatMul and friends) optionally
// fan out over a shared help-first worker pool sized by SetWorkers, which
// internal/core's data-parallel trainer also dispatches on.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"unsafe"
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
// The zero-skip below pays on the training path: MatMul's operands there
// are binary feature rows and ReLU-gated gradients, where entire inner
// sweeps vanish often enough to pay for the test. ABT never zero-skips: a
// term of its four-row tile could be dropped only where all four rows are
// zero, and on dense operands the data-dependent branch defeats the
// predictor (BenchmarkZeroSkip measures the gap both ways). The batch-1
// inference kernel, VecMat, skips like this loop does: a zero input there
// saves a whole weight row of memory traffic.
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

// abtRowTile is the row-block size of the Go ABT groups (abtGroups): b
// (typically a weight matrix larger than L1/L2) is streamed once per block
// of abtRowTile rows of a instead of once per row, which is what makes
// batched inference faster than per-sample inference on memory-bound
// layers. 8 rows of a few hundred float64s stay resident in L1 across the
// whole sweep of b.
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
// Where the CPU has AVX, a register tile (abtTiles) multiplies four input
// rows, one per SIMD lane, by four weight rows, one per accumulator, so each
// step overlaps four independent addition chains and loads a weight element
// once per four rows; a batch of 1–3 rows (every lightly loaded serving
// forward) runs the tile with zero rows padding the lanes. The b.Rows%4
// weight rows left, and every row without AVX, run dot4 over groups of four
// input rows (abtGroups) and dot4Pairs for the 1–3 rows left over (abtRow).
// The inner loops carry no data-dependent branches (see matMulRows for why
// the training kernel and VecMat zero-skip and this one does not).
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

// abtRows runs the ABT loops over output rows [lo, hi), storing each
// product (or, with add, adding it onto out). With AVX the vector tile runs
// every row against the weight rows in quads (abtTiles); the b.Rows%4 weight
// rows left, and without AVX all of them, run dot4 over the first multiple
// of four rows (abtGroups) and dot4Pairs over the 1–3 rows left, one at a
// time (abtRow). Each output element is a per-row Dot whose accumulation order is
// independent of how rows are grouped, so any row sharding (including
// PMatMulABT's) produces bit-identical results.
func abtRows[T Float](a, b, out *Mat[T], lo, hi int, add bool) {
	j0 := 0
	if useAVX && b.Rows >= 4 && hi > lo {
		j0 = b.Rows &^ 3
		abtTiles(a, b, out, lo, hi, j0, add)
	}
	if j0 == b.Rows {
		return
	}
	g := lo + (hi-lo)&^3
	abtGroups(a, b, out, lo, g, j0, add)
	for i := g; i < hi; i++ {
		abtRow(a.Row(i), b, out.Row(i), j0, add)
	}
}

// packPool64 and packPool32 hold the vector tile's scratch, one group of
// input rows interleaved, as *[]float64 and *[]float32, so ABT allocates
// nothing once warm.
var packPool64, packPool32 sync.Pool

// abtTiles runs output rows [lo, hi) against weight rows [0, nw), nw a
// multiple of four, through the vector tile (abtTileF64/F32). Each group of
// four input rows is packed once as x_{0..3}[k] into a pooled buffer; a last
// group of 1–3 rows is padded with zero rows. Each lane of the tile runs one
// Dot, so the padded lanes cost no throughput: a lone row runs four weight
// rows per step as dot4 does.
func abtTiles[T Float](a, b, out *Mat[T], lo, hi, nw int, add bool) {
	k, ldo := a.Cols, out.Cols
	pool := &packPool64
	if unsafe.Sizeof(T(0)) == 4 {
		pool = &packPool32
	}
	p, _ := pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < 4*k {
		*p = make([]T, 4*k)
	}
	x, w := (*p)[:4*k], b.Data[:nw*k]
	for i := lo; i < hi; i += 4 {
		rows := min(4, hi-i)
		if rows < 4 {
			clear(x)
		}
		for r := 0; r < rows; r++ {
			for c, v := range a.Row(i + r) {
				x[4*c+r] = v
			}
		}
		abtTile(x, w, out.Data[i*ldo:(i+rows-1)*ldo+nw], k, nw/4, ldo, rows, add)
	}
	pool.Put(p)
}

// abtGroups runs output rows [lo, hi), a multiple of four, against weight
// rows [j0, b.Rows) in groups of four input rows that share each weight row
// through dot4, over blocks of abtRowTile input rows, which stream each
// weight row once per block.
func abtGroups[T Float](a, b, out *Mat[T], lo, hi, j0 int, add bool) {
	for i0 := lo; i0 < hi; i0 += abtRowTile {
		i1 := min(i0+abtRowTile, hi)
		for j := j0; j < b.Rows; j++ {
			bj := b.Row(j)
			for i := i0; i < i1; i += 4 {
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
	}
}

// abtRow runs one leftover input row a against weight rows [j0, b.Rows)
// into out row o, four weight rows per dot4Pairs call.
func abtRow[T Float](a []T, b *Mat[T], o []T, j0 int, add bool) {
	j := j0
	for ; j+3 < b.Rows; j += 4 {
		s0, s1, s2, s3 := dot4Pairs(a, a, a, a, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		if add {
			o[j] += s0
			o[j+1] += s1
			o[j+2] += s2
			o[j+3] += s3
		} else {
			o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
		}
	}
	for ; j < b.Rows; j++ {
		if add {
			o[j] += Dot(a, b.Row(j))
		} else {
			o[j] = Dot(a, b.Row(j))
		}
	}
}

// VecMat computes the 1-row product out = x·wt, where wt is a transposed
// weight Wᵀ (In×Out), len(x) == wt.Rows and len(out) == wt.Cols. It sets out
// to +0, then adds x[k]·wt.Row(k) for each k with x[k] ≠ 0, in ascending k:
// each multiply takes x[k] first (in the vector body; see vecMatGo), each
// add takes the accumulator first, and no multiply-add is fused. So out[j]
// is ABT's Dot(x, W.Row(j)) bit for bit, NaN payloads included, whenever
// every weight is finite: a skipped term is x[k]·w = ±0, and adding ±0 to a
// sum that started at +0 changes no bit, since round to nearest never turns
// such a sum into −0. NaN and ±Inf inputs are not zero and are never
// skipped. Unlike ABT it reads only the weight rows that meet a nonzero
// input, a contiguous Out-wide row each, which is what makes a batch-1
// forward over ReLU outputs and binary features faster: such a forward is
// bound by the weight bytes it streams.
//
// Where the CPU has AVX the body is the vector loop in vecmat_amd64.s (4
// lanes at float64, 8 at float32); elsewhere vecMatGo runs it, with the same
// bits.
func VecMat[T Float](x []T, wt *Mat[T], out []T) {
	if len(x) != wt.Rows || len(out) != wt.Cols || len(wt.Data) != wt.Rows*wt.Cols {
		panic(fmt.Sprintf("tensor: vecmat shape mismatch %d · %d×%d into %d",
			len(x), wt.Rows, wt.Cols, len(out)))
	}
	if useAVX {
		vecMat(x, wt.Data, out)
		return
	}
	vecMatGo(x, wt, out)
}

// vecMatGo is VecMat's Go loop, the reference the vector body follows. It
// keeps four output columns in registers across the k loop: an accumulator
// summed in memory would compile with the loaded sum as the add's second
// operand, so where the sum and the product are both NaN it would keep the
// product's payload, not Dot's. The four-column block's compiled multiply
// takes the weight first (read with objdump); only a NaN weight could tell
// that apart from x first, and a lowered weight is finite.
func vecMatGo[T Float](x []T, wt *Mat[T], out []T) {
	n := wt.Cols
	j := 0
	for ; j+3 < n; j += 4 {
		var s0, s1, s2, s3 T
		for k, xk := range x {
			if xk == 0 {
				continue
			}
			w := wt.Data[k*n+j : k*n+j+4]
			s0 += xk * w[0]
			s1 += xk * w[1]
			s2 += xk * w[2]
			s3 += xk * w[3]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		var s T
		for k, xk := range x {
			if xk != 0 {
				s += xk * wt.Data[k*n+j]
			}
		}
		out[j] = s
	}
}

// transposeBlock is the tile edge of Transpose: a 32×32 block of float64
// reads 32 source lines and writes 32 destination lines, which stay in L1
// together. Of edges 8 to 64 it was the fastest on the perfbench fixture's
// weights.
const transposeBlock = 32

// Transpose returns mᵀ as a new matrix. It copies in square blocks, so the
// reads and the writes of a block stay within a few cache lines each: an
// element-by-element transpose misses a cache line on nearly every write.
func Transpose[T Float](m *Mat[T]) *Mat[T] {
	t := &Mat[T]{Rows: m.Cols, Cols: m.Rows, Data: make([]T, len(m.Data))}
	for i0 := 0; i0 < m.Rows; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, m.Rows)
		for j0 := 0; j0 < m.Cols; j0 += transposeBlock {
			j1 := min(j0+transposeBlock, m.Cols)
			for i := i0; i < i1; i++ {
				row := m.Data[i*m.Cols : (i+1)*m.Cols]
				for j := j0; j < j1; j++ {
					t.Data[j*t.Cols+i] = row[j]
				}
			}
		}
	}
	return t
}

// dot4Pairs returns (Dot(a0,b0), Dot(a1,b1), Dot(a2,b2), Dot(a3,b3)) in
// dot4's one loop of four independent chains. A leftover row passes itself
// as a0..a3, and the function stays out of line, so that each chain loads
// its own a[k]: with one shared a[k] (dot4 with the roles turned) the
// compiled multiply puts b's element first, and where both are NaN the
// result carries b's payload, not Dot's. The products are written b·a
// because the compiled multiply then takes a first (checked with objdump;
// FuzzMatMulABT pins it under -tags purego).
//
//go:noinline
func dot4Pairs[T Float](a0, a1, a2, a3, b0, b1, b2, b3 []T) (s0, s1, s2, s3 T) {
	if len(a0) == 0 {
		return
	}
	n := len(a0)
	_, _, _ = a1[n-1], a2[n-1], a3[n-1]
	_, _, _, _ = b0[n-1], b1[n-1], b2[n-1], b3[n-1]
	for k := range a0 {
		s0 += b0[k] * a0[k]
		s1 += b1[k] * a1[k]
		s2 += b2[k] * a2[k]
		s3 += b3[k] * a3[k]
	}
	return
}

// dot4 returns (Dot(a0,b), Dot(a1,b), Dot(a2,b), Dot(a3,b)) in one loop:
// each accumulator performs exactly its Dot sequence, a before b in each
// product, but the four addition chains are independent, so the CPU
// overlaps them instead of stalling on one chain's add latency.
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

// AdamCoeffs are the scalars of one Adam step: the moment decays Beta1 and
// Beta2, the learning rate LR, the denominator guard Eps, and the bias
// corrections C1 = 1−Beta1^t and C2 = 1−Beta2^t of step t.
type AdamCoeffs struct {
	Beta1, Beta2, LR, Eps, C1, C2 float64
}

// AdamUpdate runs one Adam step over a parameter vector: for each i it
// updates the moments m[i] and v[i] from grad[i], moves value[i] by the
// bias-corrected step and clears grad[i] to +0. All four slices must have
// the same length and must not partially overlap.
//
// Where the CPU and OS support AVX (amd64, not built with -tags purego) the
// body is the vector loop in adam_amd64.s. Each lane runs the IEEE
// operations of adamGo's loop, no fused multiply-add and no reciprocal or
// reassociation, with the operands in the compiled loop's order, so the two
// bodies agree bit for bit, NaN payloads included.
func AdamUpdate(value, grad, m, v []float64, k AdamCoeffs) {
	if len(grad) != len(value) || len(m) != len(value) || len(v) != len(value) {
		panic("tensor: adam length mismatch")
	}
	if useAVX {
		adamAVX(value, grad, m, v, k)
		return
	}
	adamGo(value, grad, m, v, k)
}

// adamGo is AdamUpdate's Go loop, the reference the vector body follows.
func adamGo(value, grad, m, v []float64, k AdamCoeffs) {
	for j := range value {
		g := grad[j]
		m[j] = k.Beta1*m[j] + (1-k.Beta1)*g
		v[j] = k.Beta2*v[j] + (1-k.Beta2)*g*g
		mh := m[j] / k.C1
		vh := v[j] / k.C2
		value[j] -= k.LR * mh / (math.Sqrt(vh) + k.Eps)
		grad[j] = 0
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
