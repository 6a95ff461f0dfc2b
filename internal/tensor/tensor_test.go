package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set did not stick")
	}
	row := m.Row(2)
	row[0] = 42
	if m.At(2, 0) != 42 {
		t.Fatal("Row must alias storage")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := MatMul(a, b, nil)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d]=%v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n, r, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMatrix(n, r)
		b := NewMatrix(n, c)
		RandNormal(rng, a.Data, 0, 1)
		RandNormal(rng, b.Data, 0, 1)

		// aᵀ·b via MatMulATBAdd into zeros must equal explicit transpose matmul.
		at := NewMatrix(r, n)
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := MatMul(at, b, nil)
		got := NewMatrix(r, c)
		MatMulATBAdd(a, b, got)
		assertClose(t, want.Data, got.Data, 1e-12)

		// a·bᵀ via PMatMulABT: a is n×r, b2 is c×r.
		b2 := NewMatrix(c, r)
		RandNormal(rng, b2.Data, 0, 1)
		b2t := NewMatrix(r, c)
		for i := 0; i < c; i++ {
			for j := 0; j < r; j++ {
				b2t.Set(j, i, b2.At(i, j))
			}
		}
		want2 := MatMul(a, b2t, nil)
		got2 := PMatMulABT(a, b2, nil)
		assertClose(t, want2.Data, got2.Data, 1e-12)
	}
}

func TestDotAxpyScale(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot=%v", got)
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy=%v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale=%v", y)
	}
}

func TestAddBiasColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	AddBias(m, []float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddBias wrong: %v", m.Data)
	}
	sums := make([]float64, 2)
	ColSums(m, sums)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("ColSums=%v", sums)
	}
}

func TestConcat(t *testing.T) {
	got := Concat([]float64{1}, nil, []float64{2, 3})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Concat=%v", got)
	}
}

func TestGlorotUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 1000)
	GlorotUniform(rng, x, 30, 20)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range x {
		if v < -limit || v >= limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
	}
	// Should span a reasonable fraction of the range.
	if MaxAbs(x) < limit/2 {
		t.Fatalf("suspiciously narrow init, max=%v", MaxAbs(x))
	}
}

func TestL2NormMaxAbs(t *testing.T) {
	if got := L2Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("L2Norm=%v", got)
	}
	if got := MaxAbs([]float64{-7, 2}); got != 7 {
		t.Fatalf("MaxAbs=%v", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil)=%v", got)
	}
}

// Property: matmul distributes over addition — a·(b+c) = a·b + a·c.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := NewMatrix(n, k)
		b := NewMatrix(k, m)
		c := NewMatrix(k, m)
		RandNormal(r, a.Data, 0, 1)
		RandNormal(r, b.Data, 0, 1)
		RandNormal(r, c.Data, 0, 1)
		bc := NewMatrix(k, m)
		for i := range bc.Data {
			bc.Data[i] = b.Data[i] + c.Data[i]
		}
		left := MatMul(a, bc, nil)
		ab := MatMul(a, b, nil)
		ac := MatMul(a, c, nil)
		for i := range left.Data {
			if math.Abs(left.Data[i]-(ab.Data[i]+ac.Data[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func assertClose(t *testing.T, want, got []float64, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch %d vs %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > tol {
			t.Fatalf("element %d: want %v got %v", i, want[i], got[i])
		}
	}
}

func TestCloneAndZero(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestMatMulReusesOutAndChecksShapes(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3}, {4}})
	out := NewMatrix(1, 1)
	out.Data[0] = 77 // must be overwritten, not accumulated into
	got := MatMul(a, b, out)
	if got != out || out.Data[0] != 11 {
		t.Fatalf("out reuse broken: %v", out.Data)
	}
	mustPanic(t, func() { MatMul(a, a, nil) })
	mustPanic(t, func() { MatMul(a, b, NewMatrix(2, 2)) })
	mustPanic(t, func() { MatMulATBAdd(a, NewMatrix(3, 1), NewMatrix(2, 1)) })
	mustPanic(t, func() { PMatMulABT(a, NewMatrix(1, 3), nil) })
	mustPanic(t, func() { PMatMulABT(a, NewMatrix(1, 2), NewMatrix(2, 1)) })
	mustPanic(t, func() { NewMatrix(-1, 2) })
	mustPanic(t, func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic(t, func() { Axpy(1, []float64{1}, []float64{1, 2}) })
	mustPanic(t, func() { AddBias(a, []float64{1, 2, 3}) })
	mustPanic(t, func() { ColSums(a, make([]float64, 5)) })
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows: %+v", m)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
