//go:build amd64 && !purego

package tensor

// useAVX reports whether the CPU has AVX and the OS saves the YMM registers
// on a context switch, so Axpy, AdamUpdate, ABT and VecMat may run their
// vector bodies.
var useAVX = cpuHasAVX()

// cpuHasAVX checks CPUID for AVX and OSXSAVE, then XGETBV for XMM and YMM
// state in XCR0.
func cpuHasAVX() bool

// axpyAVX is Axpy's vector body: y[j] = x[j]*alpha + y[j] for j < len(x),
// 16 and then 4 lanes at a time with a scalar tail. Axpy has checked that
// len(y) == len(x).
//
//go:noescape
func axpyAVX(alpha float64, x, y []float64)

// adamAVX is AdamUpdate's vector body, 4 lanes at a time with a scalar
// tail. AdamUpdate has checked that all four slices have value's length.
//
//go:noescape
func adamAVX(value, grad, m, v []float64, k AdamCoeffs)
