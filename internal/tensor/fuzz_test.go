package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMulABT pins every element of the generic ABT body to the naive
// per-element Dot bit for bit, NaN payloads included, at both element types:
// a store must overwrite a dirty out with Dot, and an add must add Dot onto
// the prior out exactly once. The forced-parallel PMatMulABT must store the
// same bits. The operands and the prior out carry exact zeros, −0, ±Inf and
// NaNs with random payloads. Shapes span 0–12 input rows, 0–70 columns and
// 0–13 weight rows, which reaches the vector tile's four-row groups, the
// 1–3 leftover rows, every weight-row tail of the 4-wide quads and the
// 8-row blocks of the dot4 groups. Seeds live in
// testdata/fuzz/FuzzMatMulABT.
func FuzzMatMulABT(f *testing.F) {
	f.Add(uint8(1), uint8(64), uint8(4), int64(1))
	f.Add(uint8(12), uint8(70), uint8(13), int64(2))
	f.Fuzz(func(t *testing.T, rows, cols, wrows uint8, seed int64) {
		r, k, c := int(rows)%13, int(cols)%71, int(wrows)%14
		rng := rand.New(rand.NewSource(seed))
		a, b, prior := specialMat(rng, r, k), specialMat(rng, c, k), specialMat(rng, r, c)

		checkABTBits(t, (*Mat[float64])(a), (*Mat[float64])(b), (*Mat[float64])(prior))
		checkABTBits(t, Demote32(a), Demote32(b), Demote32(prior))

		forceParallel(t, 3)
		par := PMatMulABT(a, b, prior.Clone())
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				sameDot(t, "PMatMulABT", i, j, par.At(i, j), Dot(a.Row(i), b.Row(j)))
			}
		}
	})
}

// checkABTBits runs ABT as a store and as an add onto copies of prior and
// checks every element against Dot. Where both the prior and Dot are NaN the
// add must give a NaN, but which of the two payloads it keeps is left open:
// the compiled adds of the dot4 paths differ in operand order there.
func checkABTBits[T Float](t *testing.T, a, b, prior *Mat[T]) {
	t.Helper()
	store := &Mat[T]{Rows: prior.Rows, Cols: prior.Cols, Data: append([]T(nil), prior.Data...)}
	add := &Mat[T]{Rows: prior.Rows, Cols: prior.Cols, Data: append([]T(nil), prior.Data...)}
	ABT(a, b, store, false)
	ABT(a, b, add, true)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			d, p := Dot(a.Row(i), b.Row(j)), prior.At(i, j)
			sameDot(t, "ABT store", i, j, store.At(i, j), d)
			if got := add.At(i, j); d != d && p != p {
				if got == got {
					t.Fatalf("ABT add %T (%d,%d): %v onto NaN, want NaN", got, i, j, got)
				}
				continue
			}
			sameDot(t, "ABT add", i, j, add.At(i, j), p+d)
		}
	}
}

// sameDot is sameBits for a result checked against Dot, except when this
// test binary's Dot does not run the operand order of a normal build: a
// product a·b with a first, a sum with the accumulator first. The coverage
// instrumentation of `go test -fuzz` spills Dot's accumulator and puts the
// product first instead, while the vector tile keeps the normal build's
// order. Then a NaN, whatever its payload, stands for a NaN; the committed
// seeds, run by plain `go test`, still pin every payload.
func sameDot[T Float](t *testing.T, kernel string, i, j int, got, want T) {
	t.Helper()
	if got != got && want != want && !dotOrderNormal[T]() {
		return
	}
	sameBits(t, kernel, i, j, got, want)
}

// dotOrderNormal reports whether Dot at T puts a before b in each product
// and the accumulator before the product in each sum, by reading which NaN
// payload wins.
func dotOrderNormal[T Float]() bool {
	n := func(payload uint64) T { return T(math.Float64frombits(0x7FF8<<48 | payload<<32)) }
	same := func(x, y T) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) }
	return same(Dot([]T{n(1)}, []T{n(2)}), n(1)) && same(Dot([]T{n(1), n(3)}, []T{1, 1}), n(1))
}

// sameBits fails unless got and want are the same value bit for bit
// (float32 → float64 conversion is exact, so it keeps every bit apart).
func sameBits[T Float](t *testing.T, kernel string, i, j int, got, want T) {
	t.Helper()
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("%s %T (%d,%d): %v, want %v", kernel, got, i, j, got, want)
	}
}

// FuzzMatMul pins every element of MatMul and the forced-parallel PMatMul to
// the naive scalar loop bit for bit, NaN payloads included: out starts at +0
// and takes b_kj·a_ik for each nonzero a_ik in ascending k. Both operands
// carry exact zeros, −0, ±Inf and NaNs with random payloads; the output
// column count runs 0–70, which reaches every 16-, 4- and 1-wide tail of the
// vector Axpy body. Seeds live in testdata/fuzz/FuzzMatMul.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(37), int64(1))
	f.Fuzz(func(t *testing.T, rows, inner, cols uint8, seed int64) {
		r, k, c := int(rows)%10, int(inner)%10, int(cols)%71
		rng := rand.New(rand.NewSource(seed))
		a, b := specialMat(rng, r, k), specialMat(rng, k, c)
		// The reference accumulates in memory, as the kernels do: the
		// compiled add then takes the product as its first operand, which
		// decides the NaN payload when both operands are NaN.
		want := NewMatrix(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				w := &want.Data[i*c+j]
				for n := 0; n < k; n++ {
					if aik := a.At(i, n); aik != 0 {
						*w += b.At(n, j) * aik
					}
				}
			}
		}
		dirty := specialMat(rng, r, c)
		sameMatBits(t, "MatMul", MatMul(a, b, dirty.Clone()), want)
		forceParallel(t, 3)
		sameMatBits(t, "PMatMul", PMatMul(a, b, dirty.Clone()), want)
	})
}

// FuzzMatMulATBAdd pins every element of MatMulATBAdd and the
// forced-parallel PMatMulATBAdd to the naive scalar loop bit for bit, NaN
// payloads included: each out_ij takes b_nj·a_ni for each nonzero a_ni in
// ascending n, on top of its prior value. Both operands and the prior out
// carry exact zeros, −0, ±Inf and NaNs with random payloads; the output
// column count runs 0–70. Seeds live in testdata/fuzz/FuzzMatMulATBAdd.
func FuzzMatMulATBAdd(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(21), int64(1))
	f.Fuzz(func(t *testing.T, batch, rows, cols uint8, seed int64) {
		n, r, c := int(batch)%10, int(rows)%10, int(cols)%71
		rng := rand.New(rand.NewSource(seed))
		a, b, prior := specialMat(rng, n, r), specialMat(rng, n, c), specialMat(rng, r, c)
		want := prior.Clone() // accumulated in memory, as in FuzzMatMul
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				w := &want.Data[i*c+j]
				for m := 0; m < n; m++ {
					if av := a.At(m, i); av != 0 {
						*w += b.At(m, j) * av
					}
				}
			}
		}
		seq := prior.Clone()
		MatMulATBAdd(a, b, seq)
		sameMatBits(t, "MatMulATBAdd", seq, want)
		forceParallel(t, 3)
		par := prior.Clone()
		PMatMulATBAdd(a, b, par)
		sameMatBits(t, "PMatMulATBAdd", par, want)
	})
}

// TestAxpyBits pins Axpy to the scalar y[j] = x[j]*alpha + y[j] bit for bit
// at every length 0–40 (every tail of the 16- and 4-wide vector loops), with
// special values in x and y and an alpha of 0, −0, 1, NaN and a plain
// finite value.
func TestAxpyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alpha := range []float64{0, math.Copysign(0, -1), 1, randNaN(rng), -0.75} {
		for n := 0; n <= 40; n++ {
			x, y := specialMat(rng, 1, n).Data, specialMat(rng, 1, n).Data
			want := make([]float64, n)
			for j := range want {
				want[j] = x[j]*alpha + y[j]
			}
			Axpy(alpha, x, y)
			for j := range want {
				sameBits(t, fmt.Sprintf("Axpy(%v) n=%d", alpha, n), 0, j, y[j], want[j])
			}
		}
	}
}

// FuzzAdamStep pins AdamUpdate to its Go loop, adamGo, bit for bit, NaN
// payloads included, in value, grad, m and v. All four vectors and, on odd
// seeds, all six coefficients carry exact zeros, −0, ±Inf and NaNs with
// random payloads (even seeds use training's β1, β2, ε and a step's bias
// corrections); lengths 0–70 reach the 4-lane body and every tail. Seeds
// live in testdata/fuzz/FuzzAdamStep.
func FuzzAdamStep(f *testing.F) {
	f.Add(uint8(67), int64(1))
	f.Add(uint8(70), int64(2))
	f.Fuzz(func(t *testing.T, length uint8, seed int64) {
		n := int(length) % 71
		rng := rand.New(rand.NewSource(seed))
		k := AdamCoeffs{Beta1: 0.9, Beta2: 0.999, LR: 1e-3, Eps: 1e-8,
			C1: 1 - math.Pow(0.9, 7), C2: 1 - math.Pow(0.999, 7)}
		if seed&1 != 0 {
			c := specialMat(rng, 1, 6).Data
			k = AdamCoeffs{Beta1: c[0], Beta2: c[1], LR: c[2], Eps: c[3], C1: c[4], C2: c[5]}
		}
		in := specialMat(rng, 4, n)
		want := in.Clone()
		adamGo(want.Row(0), want.Row(1), want.Row(2), want.Row(3), k)
		got := in.Clone()
		AdamUpdate(got.Row(0), got.Row(1), got.Row(2), got.Row(3), k)
		sameMatBits(t, "AdamUpdate", got, want)
	})
}

// TestAdamStepLengthMismatch pins AdamUpdate's length check: the vector
// body must never read or write past a slice shorter than value.
func TestAdamStepLengthMismatch(t *testing.T) {
	for short := 0; short < 4; short++ {
		s := make([][]float64, 4)
		for i := range s {
			s[i] = make([]float64, 9)
		}
		s[short] = s[short][:8]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slice %d one short: no panic", short)
				}
			}()
			AdamUpdate(s[0], s[1], s[2], s[3], AdamCoeffs{})
		}()
	}
}

// specialMat returns a rows×cols matrix of values in [-1, 1) salted with
// exact zeros, −0, ±Inf and NaNs of random sign and payload (quiet and
// signalling), so the kernels' zero-skips and NaN propagation are exercised.
func specialMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(16) {
		case 0, 1:
			m.Data[i] = 0
		case 2:
			m.Data[i] = math.Copysign(0, -1)
		case 3:
			m.Data[i] = math.Inf(1)
		case 4:
			m.Data[i] = math.Inf(-1)
		case 5:
			m.Data[i] = randNaN(rng)
		default:
			m.Data[i] = rng.Float64()*2 - 1
		}
	}
	return m
}

// randNaN returns a NaN with a random sign and a random nonzero payload.
func randNaN(rng *rand.Rand) float64 {
	mant := rng.Uint64() & (1<<52 - 1)
	if mant == 0 {
		mant = 1
	}
	return math.Float64frombits(rng.Uint64()&(1<<63) | 0x7FF<<52 | mant)
}

// sameMatBits fails unless got and want match in shape and bit for bit.
func sameMatBits(t *testing.T, kernel string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", kernel, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			sameBits(t, kernel, i, j, got.At(i, j), want.At(i, j))
		}
	}
}

// TestABTAllocs pins ABT at both element types, and PMatMulABT with out
// given at one worker, to zero allocations per call once warm, at the 1-
// and 2-row serving batches, one four-row group and the 32-row training
// batch: the vector tile's pack buffer comes from a pool. 62 weight rows
// leave a tail of two for dot4.
func TestABTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random, so calls reallocate")
	}
	defer SetWorkers(SetWorkers(1))
	rng := rand.New(rand.NewSource(1))
	w := randMatrix(rng, 62, 70)
	w32 := Demote32(w)
	for _, m := range []int{1, 2, 4, 32} {
		a, out := randMatrix(rng, m, 70), NewMatrix(m, w.Rows)
		a32, out32 := Demote32(a), NewMatrix32(m, w.Rows)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"ABT f64", func() { ABT((*Mat[float64])(a), (*Mat[float64])(w), (*Mat[float64])(out), false) }},
			{"ABT f32", func() { ABT(a32, w32, out32, true) }},
			{"PMatMulABT", func() { PMatMulABT(a, w, out) }},
		} {
			if got := testing.AllocsPerRun(20, c.call); got != 0 {
				t.Errorf("%s M=%d: %v allocations per call, want 0", c.name, m, got)
			}
		}
	}
}
