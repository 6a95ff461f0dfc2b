//go:build !amd64 || purego

package tensor

// useAVX is false where no vector body is built: Axpy and AdamUpdate run
// their Go loops and ABT runs dot4.
const useAVX = false

func axpyAVX(alpha float64, x, y []float64) { panic("tensor: no vector axpy body on this target") }

func adamAVX(value, grad, m, v []float64, k AdamCoeffs) {
	panic("tensor: no vector adam body on this target")
}

func abtTile[T Float](x, w, o []T, k, nq, ldo, rows int, add bool) {
	panic("tensor: no vector ABT tile on this target")
}
