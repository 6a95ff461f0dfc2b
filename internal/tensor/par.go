package tensor

// Parallel kernel variants. Each one shards output rows across the package
// worker pool in contiguous row blocks and is bit-identical to its
// sequential counterpart: every output element is accumulated by one worker
// in exactly the sequential order, so no cross-worker reduction (and no
// floating-point reassociation) ever happens. Inputs below parMinFlops fall
// through to the sequential kernel so small products don't pay dispatch
// overhead.

// parMinFlops is the minimum kernel size (in multiply-add flops, counted as
// 2·m·k·n) worth parallelizing. Dispatching a row block costs on the order
// of a microsecond; a block should amortize that many times over. A var so
// the fuzz tests can force tiny inputs through the parallel path.
var parMinFlops = 1 << 18

// matFlops estimates a kernel's flop count, saturating on overflow-scale
// dimensions (matrices that large never appear here).
func matFlops(m, k, n int) int { return 2 * m * k * n }

// PMatMul is the parallel variant of MatMul (out = a·b), sharding output
// rows across the worker pool. Bit-identical to MatMul for every shape and
// worker count.
func PMatMul(a, b, out *Matrix) *Matrix {
	if Workers() <= 1 || matFlops(a.Rows, a.Cols, b.Cols) < parMinFlops {
		return MatMul(a, b, out)
	}
	if a.Cols != b.Rows {
		panic("tensor: matmul shape mismatch")
	}
	if out == nil {
		out = NewMatrix(a.Rows, b.Cols)
	} else {
		if out.Rows != a.Rows || out.Cols != b.Cols {
			panic("tensor: matmul out has wrong shape")
		}
		out.Zero()
	}
	ParallelRows(a.Rows, 1, func(lo, hi int) {
		matMulRows(a, b, out, lo, hi)
	})
	return out
}

// PMatMulABT computes out = a·bᵀ (a r×k, b c×k, out r×c, allocated when
// nil), sharding rows of a across the worker pool through the ABT body.
// Each output element is a per-row Dot whose accumulation order does not
// depend on the row sharding, so results are bit-identical to ABT (and to
// per-row Dot calls) at any worker count.
func PMatMulABT(a, b, out *Matrix) *Matrix {
	if out == nil {
		out = NewMatrix(a.Rows, b.Rows)
	}
	x, w, o := (*Mat[float64])(a), (*Mat[float64])(b), (*Mat[float64])(out)
	checkABT(x, w, o)
	if Workers() <= 1 || matFlops(a.Rows, a.Cols, b.Rows) < parMinFlops {
		abtRows(x, w, o, 0, a.Rows, false)
		return out
	}
	ParallelRows(a.Rows, 1, func(lo, hi int) {
		abtRows(x, w, o, lo, hi, false)
	})
	return out
}

// MatMulATBAdd computes out += aᵀ·b where a is n×r and b is n×c (out r×c,
// must be preallocated). It is the weight-gradient accumulation of the
// Dense backward passes (dW += dYᵀ·X), run by matMulATBAddCols over every
// output row.
func MatMulATBAdd(a, b, out *Matrix) {
	checkATBAdd(a, b, out)
	matMulATBAddCols(a, b, out, 0, a.Cols)
}

// checkATBAdd panics unless out += aᵀ·b is well-shaped.
func checkATBAdd(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic("tensor: matmulATBAdd shape mismatch")
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: matmulATBAdd out has wrong shape")
	}
}

// matMulATBAddCols accumulates output rows [iLo, iHi) of out += aᵀ·b with an
// i-outer loop: row i of out stays in L1 while it takes one saxpy,
// out_i += a_ni·b_n, per batch row n in ascending order through the vector
// Axpy body. Zero entries of a skip their whole saxpy (ReLU-gated gradients
// are often zero). Each element's additions run in ascending n whatever
// rows a call covers, so output rows are independent and shardable and
// PMatMulATBAdd is bit-identical to MatMulATBAdd.
func matMulATBAddCols(a, b, out *Matrix, iLo, iHi int) {
	for i := iLo; i < iHi; i++ {
		oi := out.Row(i)
		for n := 0; n < a.Rows; n++ {
			av := a.Data[n*a.Cols+i]
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(n), oi)
		}
	}
}

// PMatMulATBAdd is the parallel variant of MatMulATBAdd, sharding output
// rows (columns of a) across the worker pool. Bit-identical to MatMulATBAdd.
func PMatMulATBAdd(a, b, out *Matrix) {
	checkATBAdd(a, b, out)
	if Workers() <= 1 || matFlops(a.Rows, a.Cols, b.Cols) < parMinFlops {
		matMulATBAddCols(a, b, out, 0, a.Cols)
		return
	}
	ParallelRows(a.Cols, 1, func(lo, hi int) {
		matMulATBAddCols(a, b, out, lo, hi)
	})
}
