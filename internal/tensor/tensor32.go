package tensor

import "fmt"

// Matrix32 is a dense row-major float32 matrix, the storage type of the f32
// inference tier in internal/infer. Training is float64 everywhere;
// inference opts into float32 explicitly by demoting weights once per model.
type Matrix32 = Mat[float32]

// NewMatrix32 returns a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Demote32 copies a float64 matrix into a freshly allocated float32 matrix,
// rounding every element to nearest. This is the weight-lowering primitive of
// the compiled inference path: it runs once per model (hot) swap, never per
// request.
func Demote32(src *Matrix) *Matrix32 {
	return &Matrix32{Rows: src.Rows, Cols: src.Cols, Data: Demote32Vec(src.Data)}
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
// overwriting out (allocated when nil). It is the sequential ABT kernel at
// float32.
func MatMulABT32(a, b, out *Matrix32) *Matrix32 {
	if out == nil {
		out = NewMatrix32(a.Rows, b.Rows)
	}
	ABT(a, b, out, false)
	return out
}
