package tensor

import "fmt"

// Matrix32 is a dense row-major float32 matrix, the storage type of the
// compiled inference plans in internal/infer. Keeping a separate type (rather
// than parameterizing Matrix) lets the float32 kernels stay as tight as the
// float64 ones without interface or generic dispatch in the inner loops, and
// makes it impossible to feed a half-precision buffer into the training
// kernels by accident: training is float64 everywhere, inference opts into
// float32 explicitly.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix32 returns a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix32) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Demote32 copies a float64 matrix into a freshly allocated float32 matrix,
// rounding every element to nearest. This is the weight-lowering primitive of
// the compiled inference path: it runs once per model (hot) swap, never per
// request.
func Demote32(src *Matrix) *Matrix32 {
	dst := NewMatrix32(src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// Demote32Vec converts a float64 vector to float32.
func Demote32Vec(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// MatMulABT32 computes out = a·bᵀ where a is r×k and b is c×k (out is r×c),
// overwriting out (allocated when nil). It mirrors the float64 MatMulABT
// exactly: row tiles of abtRowTile keep a block of a resident in L1 while b —
// the weight matrix, usually the larger operand — streams through once per
// tile (cache blocking), and the 4-wide dot4_32 kernel runs four independent
// accumulation chains so the CPU overlaps their add latency instead of
// stalling on one chain. Inner loops carry no data-dependent branches: the
// inference kernels never zero-skip (see matMulRows for why the training
// kernel does).
func MatMulABT32(a, b, out *Matrix32) *Matrix32 {
	return matMulABT32(a, b, out, false)
}

// MatMulABTAdd32 is MatMulABT32 accumulating into out (out += a·bᵀ) instead
// of overwriting it. The compiled CardNet-A plan uses it to sum the fused
// per-layer head products into one pre-activation matrix without a scratch
// copy per layer.
func MatMulABTAdd32(a, b, out *Matrix32) *Matrix32 {
	return matMulABT32(a, b, out, true)
}

func matMulABT32(a, b, out *Matrix32, add bool) *Matrix32 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT32 shape mismatch %d×%d · (%d×%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out == nil {
		out = NewMatrix32(a.Rows, b.Rows)
	} else if out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: matmulABT32 out has wrong shape")
	}
	for i0 := 0; i0 < a.Rows; i0 += abtRowTile {
		i1 := i0 + abtRowTile
		if i1 > a.Rows {
			i1 = a.Rows
		}
		i4 := i0 + (i1-i0)&^3
		for j := 0; j < b.Rows && i0 < i4; j++ {
			bj := b.Row(j)
			for i := i0; i < i4; i += 4 {
				s0, s1, s2, s3 := dot4_32(a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3), bj)
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
		// Leftover rows run against four weight rows at a time (see
		// matMulABTRows), keeping each element's Dot32 order.
		for i := i4; i < i1; i++ {
			ai, oi := a.Row(i), out.Row(i)
			j := 0
			for ; j+3 < b.Rows; j += 4 {
				s0, s1, s2, s3 := dot4_32(b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3), ai)
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
				s := Dot32(ai, b.Row(j))
				if add {
					oi[j] += s
				} else {
					oi[j] = s
				}
			}
		}
	}
	return out
}

// dot4_32 returns four float32 dot products against a shared right-hand row,
// with four independent accumulator chains (see dot4).
func dot4_32(a0, a1, a2, a3, b []float32) (s0, s1, s2, s3 float32) {
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

// Dot32 returns the float32 inner product of two equal-length vectors.
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot32 length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddBias32 adds the bias vector to every row of m in place.
func AddBias32(m *Matrix32, bias []float32) {
	if len(bias) != m.Cols {
		panic("tensor: bias32 length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, b := range bias {
			ri[j] += b
		}
	}
}

// MatMulDense computes out = a·b like MatMul but with a branch-free inner
// loop: no zero-skip test on a's elements. The skip in matMulRows wins on the
// sparse operands of the training path (binary inputs, ReLU-gated gradients)
// but on dense inference activations it only adds a data-dependent branch the
// predictor cannot learn — see BenchmarkZeroSkip for the measured gap.
// Inference-side callers that multiply dense activations (the lowered f64
// reference path in internal/core) use this kernel; training keeps MatMul.
func MatMulDense(a, b, out *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmuldense shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out == nil {
		out = NewMatrix(a.Rows, b.Cols)
	} else {
		if out.Rows != a.Rows || out.Cols != b.Cols {
			panic("tensor: matmuldense out has wrong shape")
		}
		out.Zero()
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		oi := out.Row(i)
		k := 0
		// Four k-values per sweep: each pass over oi folds in four rows of b,
		// quartering the out-row read/modify/write traffic relative to the
		// training kernel's one-row-at-a-time sweep.
		for ; k+3 < a.Cols; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			_ = b0[len(oi)-1]
			_ = b1[len(oi)-1]
			_ = b2[len(oi)-1]
			_ = b3[len(oi)-1]
			for j := range oi {
				// Left-associated like the k-at-a-time loop, so results stay
				// bit-identical to MatMul on zero-free operands.
				s := oi[j]
				s += a0 * b0[j]
				s += a1 * b1[j]
				s += a2 * b2[j]
				s += a3 * b3[j]
				oi[j] = s
			}
		}
		for ; k < a.Cols; k++ {
			aik := ai[k]
			bk := b.Row(k)
			for j := range bk {
				oi[j] += aik * bk[j]
			}
		}
	}
	return out
}
