//go:build !amd64 || purego

package tensor

// useAVX is false where no vector body is built: Axpy runs its Go loop.
const useAVX = false

func axpyAVX(alpha float64, x, y []float64) { panic("tensor: no vector axpy body on this target") }
