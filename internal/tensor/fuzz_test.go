package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMulABT pins every ABT kernel element to the per-element dot product
// bit for bit: MatMulABT, MatMulABTAdd and the forced-parallel PMatMulABT to
// Dot, and MatMulABT32/MatMulABTAdd32 to Dot32. The add variants must add
// onto the prior out exactly once. Shapes span 1–9 input rows, 0–70 columns and 0–9
// weight rows, which reaches every remainder of the 4-row tiles, the 8-row
// blocks and the 4-wide weight groups. Seeds live in
// testdata/fuzz/FuzzMatMulABT.
func FuzzMatMulABT(f *testing.F) {
	f.Add(uint8(0), uint8(64), uint8(4), int64(1))
	f.Add(uint8(8), uint8(70), uint8(9), int64(2))
	f.Fuzz(func(t *testing.T, rows, cols, wrows uint8, seed int64) {
		r, k, c := 1+int(rows)%9, int(cols)%71, int(wrows)%10
		rng := rand.New(rand.NewSource(seed))
		a, b := randMat(rng, r, k), randMat(rng, c, k)

		got := MatMulABT(a, b, nil)
		prior64 := randMat(rng, r, c)
		add := prior64.Clone()
		MatMulABTAdd(a, b, add)
		forceParallel(t, 3)
		pgot := PMatMulABT(a, b, NewMatrix(r, c))
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				d := Dot(a.Row(i), b.Row(j))
				want := math.Float64bits(d)
				if math.Float64bits(got.At(i, j)) != want || math.Float64bits(pgot.At(i, j)) != want {
					t.Fatalf("%d×%d·(%d×%d)ᵀ f64 (%d,%d): MatMulABT %v, PMatMulABT %v, Dot %v",
						r, k, c, k, i, j, got.At(i, j), pgot.At(i, j), d)
				}
				if sum := prior64.At(i, j) + d; math.Float64bits(add.At(i, j)) != math.Float64bits(sum) {
					t.Fatalf("MatMulABTAdd (%d,%d): %v, want %v", i, j, add.At(i, j), sum)
				}
			}
		}

		a32, b32 := Demote32(a), Demote32(b)
		prior := Demote32(randMat(rng, r, c))
		got32 := MatMulABT32(a32, b32, nil)
		add32 := &Matrix32{Rows: r, Cols: c, Data: append([]float32(nil), prior.Data...)}
		MatMulABTAdd32(a32, b32, add32)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				d := Dot32(a32.Row(i), b32.Row(j))
				checkBits32(t, "MatMulABT32", i, j, got32.At(i, j), d)
				checkBits32(t, "MatMulABTAdd32", i, j, add32.At(i, j), prior.At(i, j)+d)
			}
		}
	})
}

func checkBits32(t *testing.T, kernel string, i, j int, got, want float32) {
	t.Helper()
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s (%d,%d): %v, want %v", kernel, i, j, got, want)
	}
}
