package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"weak"
)

// forceParallel routes every kernel through the parallel path regardless of
// size, restoring the cutoff and worker count on cleanup.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	prevCut := parMinFlops
	parMinFlops = 0
	prevW := SetWorkers(workers)
	t.Cleanup(func() {
		parMinFlops = prevCut
		SetWorkers(prevW)
	})
}

// randMat returns a rows×cols matrix with values in [-1, 1) and a sprinkle
// of exact zeros (the kernels' skip paths must not change results).
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			continue // leave a zero
		}
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// abtSeq is the sequential ABT body over every row, the reference
// PMatMulABT must match at any worker count.
func abtSeq(a, b, out *Matrix) *Matrix {
	if out == nil {
		out = NewMatrix(a.Rows, b.Rows)
	}
	abtRows((*Mat[float64])(a), (*Mat[float64])(b), (*Mat[float64])(out), 0, a.Rows, false)
	return out
}

// bitsEqual compares two matrices for exact bit equality.
func bitsEqual(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, want.Data[i], got.Data[i])
		}
	}
}

// TestParallelKernelsBitIdenticalFuzz sweeps odd shapes — fewer rows than
// workers, zero rows, sizes not divisible by the block or tile widths —
// through every parallel kernel at several worker counts and demands exact
// bit equality with the sequential kernels (for ABT, the unexported body).
func TestParallelKernelsBitIdenticalFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{ // m×k · k×n style dims
		{0, 3, 4}, {1, 1, 1}, {2, 7, 5}, {3, 16, 9}, {5, 3, 2},
		{8, 8, 8}, {13, 17, 11}, {31, 5, 29}, {64, 33, 7}, {100, 10, 100},
	}
	for _, workers := range []int{2, 3, 4, 7} {
		t.Run("", func(t *testing.T) {
			forceParallel(t, workers)
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				bitsEqual(t, "PMatMul", MatMul(a, b, nil), PMatMul(a, b, nil))

				bt := randMat(rng, n, k) // for ABT: a is m×k, b is n×k
				bitsEqual(t, "PMatMulABT", abtSeq(a, bt, nil), PMatMulABT(a, bt, nil))

				at := randMat(rng, k, m) // for ATB: a is k×m, b is k×n
				b2 := randMat(rng, k, n)

				accSeq := randMat(rng, m, n)
				accPar := accSeq.Clone()
				MatMulATBAdd(at, b2, accSeq)
				PMatMulATBAdd(at, b2, accPar)
				bitsEqual(t, "PMatMulATBAdd", accSeq, accPar)
			}
		})
	}
}

// TestParallelKernelsRandomizedShapes is the fuzz-style sweep: 200 random
// shape draws, biased toward edge cases (dims in [0, 40]).
func TestParallelKernelsRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	forceParallel(t, 4)
	for it := 0; it < 200; it++ {
		m, k, n := rng.Intn(41), rng.Intn(41), rng.Intn(41)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		bitsEqual(t, "PMatMul", MatMul(a, b, nil), PMatMul(a, b, nil))
		bt := randMat(rng, n, k)
		bitsEqual(t, "PMatMulABT", abtSeq(a, bt, nil), PMatMulABT(a, bt, nil))
		at := randMat(rng, k, m)
		accSeq := randMat(rng, m, n)
		accPar := accSeq.Clone()
		MatMulATBAdd(at, b, accSeq)
		PMatMulATBAdd(at, b, accPar)
		bitsEqual(t, "PMatMulATBAdd", accSeq, accPar)
	}
}

// TestParallelKernelsPreallocatedOut checks the out-reuse path: a dirty
// preallocated out must be overwritten identically by both kernels.
func TestParallelKernelsPreallocatedOut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	forceParallel(t, 4)
	a := randMat(rng, 9, 12)
	b := randMat(rng, 12, 10)
	dirtySeq := randMat(rng, 9, 10)
	dirtyPar := dirtySeq.Clone()
	bitsEqual(t, "PMatMul out", MatMul(a, b, dirtySeq), PMatMul(a, b, dirtyPar))

	bt := randMat(rng, 10, 12)
	dirtySeq2 := randMat(rng, 9, 10)
	dirtyPar2 := dirtySeq2.Clone()
	bitsEqual(t, "PMatMulABT out", abtSeq(a, bt, dirtySeq2), PMatMulABT(a, bt, dirtyPar2))
}

// TestSetWorkers checks the setter contract: previous value returned, n < 1
// resets to GOMAXPROCS.
func TestSetWorkers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if prev := SetWorkers(5); prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 5 {
		t.Fatalf("Workers()=%d after SetWorkers(5)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers()=%d after reset", Workers())
	}
}

// TestRunPartsRunsEachPartOnce checks the pool contract RunParts is named
// for: every part index runs exactly once, including under nesting.
func TestRunPartsRunsEachPartOnce(t *testing.T) {
	var counts [13]atomic.Int64
	RunParts(13, func(k int) {
		// Nested dispatch from inside a pool task must not deadlock.
		RunParts(3, func(int) {})
		counts[k].Add(1)
	})
	for k := range counts {
		if got := counts[k].Load(); got != 1 {
			t.Fatalf("part %d ran %d times", k, got)
		}
	}
}

// TestRunPartsReleasesTasks checks that the pool keeps no reference to a
// finished task: an object captured by a RunParts task is collectable once
// RunParts returns, even though no later dispatch has reused the queue's
// backing array.
func TestRunPartsReleasesTasks(t *testing.T) {
	wp := dispatchCapturing(1 << 10)
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an object captured by a finished RunParts task is still reachable")
	}
}

// dispatchCapturing runs a RunParts whose tasks capture a fresh slice and
// returns a weak pointer into it; once it returns, only the pool could
// still hold the slice.
func dispatchCapturing(n int) weak.Pointer[float64] {
	obj := make([]float64, n)
	RunParts(3, func(k int) { obj[k] = 1 })
	return weak.Make(&obj[0])
}

// TestRunAllRunsEachJobOnce checks RunAll's contract at several worker
// counts: every job runs exactly once, and at one worker they run in order
// on the calling goroutine.
func TestRunAllRunsEachJobOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		prev := SetWorkers(w)
		var order []int
		counts := make([]atomic.Int64, 7)
		jobs := make([]func(), len(counts))
		for i := range jobs {
			jobs[i] = func() {
				counts[i].Add(1)
				if w == 1 {
					order = append(order, i)
				}
			}
		}
		RunAll(jobs...)
		SetWorkers(prev)
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers %d: job %d ran %d times", w, i, got)
			}
		}
		if w == 1 {
			for i, j := range order {
				if i != j {
					t.Fatalf("workers 1: jobs ran in order %v", order)
				}
			}
		}
	}
	RunAll() // no jobs: returns at once
}

// TestParallelRowsCoversRange checks the block splitter: every index covered
// exactly once for awkward n/worker combinations, and tiny n stays inline.
func TestParallelRowsCoversRange(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 64, 101} {
		var hit = make([]atomic.Int64, n)
		ParallelRows(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i].Add(1)
			}
		})
		for i := range hit {
			if hit[i].Load() != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, hit[i].Load())
			}
		}
	}
}
