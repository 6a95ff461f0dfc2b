//go:build amd64 && !purego

package tensor

// abtTileF64 is the vector tile of ABT's row groups at float64. x holds a
// group of four input rows packed as x[4c+r] = row_r[c], c < k; w holds nq
// quads of weight rows of length k. For each quad q, each c < 4 and each
// r < rows it stores o[r*ldo+4q+c] = Dot(row_r, w_{4q+c}), or with add adds
// it onto the prior value; a group of fewer than four rows comes padded with
// zero rows, whose lanes are dropped. The caller has checked every extent
// (see abtTiles).
//
//go:noescape
func abtTileF64(x, w, o []float64, k, nq, ldo, rows int, add bool)

// abtTileF32 is abtTileF64 at float32.
//
//go:noescape
func abtTileF32(x, w, o []float32, k, nq, ldo, rows int, add bool)

// abtTile runs the vector tile of T's width.
func abtTile[T Float](x, w, o []T, k, nq, ldo, rows int, add bool) {
	switch x := any(x).(type) {
	case []float64:
		abtTileF64(x, any(w).([]float64), any(o).([]float64), k, nq, ldo, rows, add)
	case []float32:
		abtTileF32(x, any(w).([]float32), any(o).([]float32), k, nq, ldo, rows, add)
	}
}

// vecMatF64 is VecMat's vector body at float64: o = +0, then for each k with
// x[k] ≠ 0, o[j] = o[j] + x[k]·w[k·len(o)+j], 16, 4 and then 1 lane at a
// time. VecMat has checked that len(w) == len(x)·len(o).
//
//go:noescape
func vecMatF64(x, w, o []float64)

// vecMatF32 is vecMatF64 at float32, 32, 8 and then 1 lane at a time.
//
//go:noescape
func vecMatF32(x, w, o []float32)

// vecMat runs the VecMat vector body of T's width.
func vecMat[T Float](x, w, o []T) {
	switch x := any(x).(type) {
	case []float64:
		vecMatF64(x, any(w).([]float64), any(o).([]float64))
	case []float32:
		vecMatF32(x, any(w).([]float32), any(o).([]float32))
	}
}
