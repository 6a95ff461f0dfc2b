package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMulABT pins every element of the generic ABT body to the naive
// per-element Dot bit for bit, at both element types: a store must overwrite
// a dirty out with Dot, and an add must add Dot onto the prior out exactly
// once. The forced-parallel PMatMulABT must store the same bits. Shapes span
// 1–9 input rows, 0–70 columns and 0–9 weight rows, which reaches every
// remainder of the 4-row tiles, the 8-row blocks and the 4-wide weight
// groups. Seeds live in testdata/fuzz/FuzzMatMulABT.
func FuzzMatMulABT(f *testing.F) {
	f.Add(uint8(0), uint8(64), uint8(4), int64(1))
	f.Add(uint8(8), uint8(70), uint8(9), int64(2))
	f.Fuzz(func(t *testing.T, rows, cols, wrows uint8, seed int64) {
		r, k, c := 1+int(rows)%9, int(cols)%71, int(wrows)%10
		rng := rand.New(rand.NewSource(seed))
		a, b, prior := randMat(rng, r, k), randMat(rng, c, k), randMat(rng, r, c)

		checkABTBits(t, (*Mat[float64])(a), (*Mat[float64])(b), (*Mat[float64])(prior))
		checkABTBits(t, Demote32(a), Demote32(b), Demote32(prior))

		forceParallel(t, 3)
		par := PMatMulABT(a, b, prior.Clone())
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				sameBits(t, "PMatMulABT", i, j, par.At(i, j), Dot(a.Row(i), b.Row(j)))
			}
		}
	})
}

// checkABTBits runs ABT as a store and as an add onto copies of prior and
// checks every element against Dot.
func checkABTBits[T Float](t *testing.T, a, b, prior *Mat[T]) {
	t.Helper()
	store := &Mat[T]{Rows: prior.Rows, Cols: prior.Cols, Data: append([]T(nil), prior.Data...)}
	add := &Mat[T]{Rows: prior.Rows, Cols: prior.Cols, Data: append([]T(nil), prior.Data...)}
	ABT(a, b, store, false)
	ABT(a, b, add, true)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			d := Dot(a.Row(i), b.Row(j))
			sameBits(t, "ABT store", i, j, store.At(i, j), d)
			sameBits(t, "ABT add", i, j, add.At(i, j), prior.At(i, j)+d)
		}
	}
}

// sameBits fails unless got and want are the same value bit for bit
// (float32 → float64 conversion is exact, so it keeps every bit apart).
func sameBits[T Float](t *testing.T, kernel string, i, j int, got, want T) {
	t.Helper()
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("%s %T (%d,%d): %v, want %v", kernel, got, i, j, got, want)
	}
}
