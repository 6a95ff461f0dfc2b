//go:build amd64 && !purego

#include "textflag.h"

// The vector tile of ABT. A group of four input rows comes packed as
// x[4k+r] = row_r[k], so one load fetches x_{0..3}[k]; each weight row's
// w_j[k] is broadcast to every lane. Lane r of accumulator c is then exactly
// Dot(row_r, w_{j+c}): VMULPD x, w → p (x is the first operand) and VADDPD
// acc, p → acc (the accumulator is the first operand), in ascending k, the
// compiled Dot and dot4 loops' two operations in their operand order, with
// no fused multiply-add, so every bit matches, NaN payloads included. After
// the k loop the 4×4 block is transposed by shuffles, which move bits
// without touching them, and the first `rows` rows are stored, or added
// onto the prior output (a group of fewer than four rows comes padded with
// zero rows, whose lanes are dropped). The encoding rules of axpy_amd64.s
// hold here too: VEX only, VZEROUPPER before RET, X15 and R14 untouched.
//
// Registers: SI packed x, DI weight quad, DX output block, CX k,
// R8 quads left, R9 output row stride (bytes), R10 add, R11 weight row
// stride (bytes), R13 three weight rows (bytes), AX/BX/R12 k-loop cursors,
// BX rows and R12 the third output row after the k loop.

// func abtTileF64(x, w, o []float64, k, nq, ldo, rows int, add bool)
TEXT ·abtTileF64(SB), NOSPLIT, $0-105
	MOVQ    x_base+0(FP), SI
	MOVQ    w_base+24(FP), DI
	MOVQ    o_base+48(FP), DX
	MOVQ    k+72(FP), CX
	MOVQ    nq+80(FP), R8
	MOVQ    ldo+88(FP), R9
	MOVBLZX add+104(FP), R10
	SHLQ    $3, R9
	LEAQ    (CX*8), R11
	LEAQ    (R11)(R11*2), R13

quad64:
	TESTQ  R8, R8
	JEQ    done64
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   CX, R12
	TESTQ  R12, R12
	JEQ    block64

k64:
	VMOVUPD      (AX), Y4
	VBROADCASTSD (BX), Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (BX)(R11*1), Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (BX)(R11*2), Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (BX)(R13*1), Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, AX
	ADDQ         $8, BX
	DECQ         R12
	JNE          k64

block64:
	// Y0..Y3 hold output columns j..j+3 (lane r = row r); make them rows.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	LEAQ  (DX)(R9*2), R12
	MOVQ  rows+96(FP), BX
	TESTQ R10, R10
	JNE   add64
	VMOVUPD Y0, (DX)
	CMPQ  BX, $2
	JLT   next64
	VMOVUPD Y1, (DX)(R9*1)
	CMPQ  BX, $3
	JLT   next64
	VMOVUPD Y2, (R12)
	CMPQ  BX, $4
	JLT   next64
	VMOVUPD Y3, (R12)(R9*1)
	JMP   next64

add64:
	VMOVUPD (DX), Y4
	VADDPD  Y0, Y4, Y0
	VMOVUPD Y0, (DX)
	CMPQ  BX, $2
	JLT   next64
	VMOVUPD (DX)(R9*1), Y5
	VADDPD  Y1, Y5, Y1
	VMOVUPD Y1, (DX)(R9*1)
	CMPQ  BX, $3
	JLT   next64
	VMOVUPD (R12), Y6
	VADDPD  Y2, Y6, Y2
	VMOVUPD Y2, (R12)
	CMPQ  BX, $4
	JLT   next64
	VMOVUPD (R12)(R9*1), Y7
	VADDPD  Y3, Y7, Y3
	VMOVUPD Y3, (R12)(R9*1)

next64:
	LEAQ  (DI)(R11*4), DI
	ADDQ  $32, DX
	DECQ  R8
	JMP   quad64

done64:
	VZEROUPPER
	RET

// func abtTileF32(x, w, o []float32, k, nq, ldo, rows int, add bool)
//
// The float32 tile: the same loop on 4-lane XMM registers (VMULPS, VADDPS),
// packed x at 16 bytes per k.
TEXT ·abtTileF32(SB), NOSPLIT, $0-105
	MOVQ    x_base+0(FP), SI
	MOVQ    w_base+24(FP), DI
	MOVQ    o_base+48(FP), DX
	MOVQ    k+72(FP), CX
	MOVQ    nq+80(FP), R8
	MOVQ    ldo+88(FP), R9
	MOVBLZX add+104(FP), R10
	SHLQ    $2, R9
	LEAQ    (CX*4), R11
	LEAQ    (R11)(R11*2), R13

quad32:
	TESTQ  R8, R8
	JEQ    done32
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   CX, R12
	TESTQ  R12, R12
	JEQ    block32

k32:
	VMOVUPS      (AX), X4
	VBROADCASTSS (BX), X5
	VMULPS       X5, X4, X5
	VADDPS       X5, X0, X0
	VBROADCASTSS (BX)(R11*1), X6
	VMULPS       X6, X4, X6
	VADDPS       X6, X1, X1
	VBROADCASTSS (BX)(R11*2), X7
	VMULPS       X7, X4, X7
	VADDPS       X7, X2, X2
	VBROADCASTSS (BX)(R13*1), X8
	VMULPS       X8, X4, X8
	VADDPS       X8, X3, X3
	ADDQ         $16, AX
	ADDQ         $4, BX
	DECQ         R12
	JNE          k32

block32:
	// X0..X3 hold output columns j..j+3 (lane r = row r); make them rows.
	VUNPCKLPS X1, X0, X4 // a0 b0 a1 b1
	VUNPCKHPS X1, X0, X5 // a2 b2 a3 b3
	VUNPCKLPS X3, X2, X6 // c0 d0 c1 d1
	VUNPCKHPS X3, X2, X7 // c2 d2 c3 d3
	VMOVLHPS  X6, X4, X0 // a0 b0 c0 d0
	VMOVHLPS  X4, X6, X1 // a1 b1 c1 d1
	VMOVLHPS  X7, X5, X2 // a2 b2 c2 d2
	VMOVHLPS  X5, X7, X3 // a3 b3 c3 d3
	LEAQ  (DX)(R9*2), R12
	MOVQ  rows+96(FP), BX
	TESTQ R10, R10
	JNE   add32
	VMOVUPS X0, (DX)
	CMPQ  BX, $2
	JLT   next32
	VMOVUPS X1, (DX)(R9*1)
	CMPQ  BX, $3
	JLT   next32
	VMOVUPS X2, (R12)
	CMPQ  BX, $4
	JLT   next32
	VMOVUPS X3, (R12)(R9*1)
	JMP   next32

add32:
	VMOVUPS (DX), X4
	VADDPS  X0, X4, X0
	VMOVUPS X0, (DX)
	CMPQ  BX, $2
	JLT   next32
	VMOVUPS (DX)(R9*1), X5
	VADDPS  X1, X5, X1
	VMOVUPS X1, (DX)(R9*1)
	CMPQ  BX, $3
	JLT   next32
	VMOVUPS (R12), X6
	VADDPS  X2, X6, X2
	VMOVUPS X2, (R12)
	CMPQ  BX, $4
	JLT   next32
	VMOVUPS (R12)(R9*1), X7
	VADDPS  X3, X7, X3
	VMOVUPS X3, (R12)(R9*1)

next32:
	LEAQ  (DI)(R11*4), DI
	ADDQ  $16, DX
	DECQ  R8
	JMP   quad32

done32:
	VZEROUPPER
	RET
