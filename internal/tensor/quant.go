package tensor

import (
	"fmt"
	"math"
)

// QuantMatrix is a row-major int8 matrix with one symmetric scale per row:
// the real value of element (i, j) is float32(Data[i*Cols+j]) * Scale[i].
// For a weight matrix stored Out×In this is exactly per-output-channel
// symmetric quantization; for an activation batch it is per-example dynamic
// quantization. Symmetric (zero-point-free) quantization keeps the matmul
// inner loop a plain int8×int8→int32 multiply-accumulate with all scaling
// hoisted out of the k-loop.
type QuantMatrix struct {
	Rows, Cols int
	Data       []int8    // len == Rows*Cols, row-major
	Scale      []float32 // len == Rows, per-row dequantization scale
}

// NewQuantMatrix returns a zeroed rows×cols int8 matrix with zero scales.
func NewQuantMatrix(rows, cols int) *QuantMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &QuantMatrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols), Scale: make([]float32, rows)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *QuantMatrix) Row(i int) []int8 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// QuantizeRows quantizes src into dst row by row with symmetric per-row
// scales s_i = max_j |src[i][j]| / 127, rounding to nearest. dst must match
// src's shape (allocated when nil); an all-zero row gets scale 0 and stays
// zero. The inference plan calls this once per dense layer to quantize the
// incoming activation batch (dynamic activation quantization), so it is kept
// allocation-free for a preallocated dst.
func QuantizeRows(src *Matrix32, dst *QuantMatrix) *QuantMatrix {
	if dst == nil {
		dst = NewQuantMatrix(src.Rows, src.Cols)
	} else if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: quantizerows shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		var maxAbs float32
		for _, v := range srow {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		drow := dst.Row(i)
		if maxAbs == 0 {
			dst.Scale[i] = 0
			for j := range drow {
				drow[j] = 0
			}
			continue
		}
		scale := maxAbs / 127
		inv := 1 / scale
		dst.Scale[i] = scale
		for j, v := range srow {
			q := math.Round(float64(v * inv))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			drow[j] = int8(q)
		}
	}
	return dst
}

// MatMulABTQ8 computes out = dequant(a·bᵀ) where a is r×k and b is c×k, both
// int8 with per-row scales (out is r×c float32, overwritten; allocated when
// nil). The inner loop accumulates int8×int8 products in int32 — exact for
// any k below 2³¹/127² ≈ 133k, far beyond the layer widths here — and the two
// row scales are applied once per output element. Like the other inference
// kernels it is row-tiled for cache blocking and 4-wide unrolled with
// independent accumulator chains, and carries no data-dependent branches.
func MatMulABTQ8(a, b *QuantMatrix, out *Matrix32) *Matrix32 {
	return matMulABTQ8(a, b, out, false)
}

// MatMulABTQ8Add is MatMulABTQ8 accumulating into out (out += dequant(a·bᵀ)).
func MatMulABTQ8Add(a, b *QuantMatrix, out *Matrix32) *Matrix32 {
	return matMulABTQ8(a, b, out, true)
}

func matMulABTQ8(a, b *QuantMatrix, out *Matrix32, add bool) *Matrix32 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABTQ8 shape mismatch %d×%d · (%d×%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out == nil {
		out = NewMatrix32(a.Rows, b.Rows)
	} else if out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: matmulABTQ8 out has wrong shape")
	}
	for i0 := 0; i0 < a.Rows; i0 += abtRowTile {
		i1 := i0 + abtRowTile
		if i1 > a.Rows {
			i1 = a.Rows
		}
		i4 := i0 + (i1-i0)&^3
		for j := 0; j < b.Rows && i0 < i4; j++ {
			bj := b.Row(j)
			bs := b.Scale[j]
			for i := i0; i < i4; i += 4 {
				s0, s1, s2, s3 := dotq4(a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3), bj)
				if add {
					out.Row(i)[j] += float32(s0) * a.Scale[i] * bs
					out.Row(i + 1)[j] += float32(s1) * a.Scale[i+1] * bs
					out.Row(i + 2)[j] += float32(s2) * a.Scale[i+2] * bs
					out.Row(i + 3)[j] += float32(s3) * a.Scale[i+3] * bs
				} else {
					out.Row(i)[j] = float32(s0) * a.Scale[i] * bs
					out.Row(i + 1)[j] = float32(s1) * a.Scale[i+1] * bs
					out.Row(i + 2)[j] = float32(s2) * a.Scale[i+2] * bs
					out.Row(i + 3)[j] = float32(s3) * a.Scale[i+3] * bs
				}
			}
		}
		// Leftover rows run against four weight rows at a time (see
		// matMulABTRows); int32 sums are exact, and each element keeps the
		// same scale expression.
		for i := i4; i < i1; i++ {
			ai, oi, as := a.Row(i), out.Row(i), a.Scale[i]
			j := 0
			for ; j+3 < b.Rows; j += 4 {
				s0, s1, s2, s3 := dotq4(b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3), ai)
				if add {
					oi[j] += float32(s0) * as * b.Scale[j]
					oi[j+1] += float32(s1) * as * b.Scale[j+1]
					oi[j+2] += float32(s2) * as * b.Scale[j+2]
					oi[j+3] += float32(s3) * as * b.Scale[j+3]
				} else {
					oi[j] = float32(s0) * as * b.Scale[j]
					oi[j+1] = float32(s1) * as * b.Scale[j+1]
					oi[j+2] = float32(s2) * as * b.Scale[j+2]
					oi[j+3] = float32(s3) * as * b.Scale[j+3]
				}
			}
			for ; j < b.Rows; j++ {
				s := DotQ8(ai, b.Row(j))
				if add {
					oi[j] += float32(s) * as * b.Scale[j]
				} else {
					oi[j] = float32(s) * as * b.Scale[j]
				}
			}
		}
	}
	return out
}

// dotq4 returns four int32 dot products of int8 rows against a shared int8
// right-hand row, with four independent accumulator chains (see dot4).
func dotq4(a0, a1, a2, a3, b []int8) (s0, s1, s2, s3 int32) {
	if len(b) == 0 {
		return
	}
	_ = a0[len(b)-1]
	_ = a1[len(b)-1]
	_ = a2[len(b)-1]
	_ = a3[len(b)-1]
	for k, v := range b {
		w := int32(v)
		s0 += int32(a0[k]) * w
		s1 += int32(a1[k]) * w
		s2 += int32(a2[k]) * w
		s3 += int32(a3[k]) * w
	}
	return
}

// DotQ8 returns the int32 inner product of two equal-length int8 vectors.
func DotQ8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dotq8 length mismatch %d vs %d", len(a), len(b)))
	}
	var s int32
	for i, v := range a {
		s += int32(v) * int32(b[i])
	}
	return s
}
