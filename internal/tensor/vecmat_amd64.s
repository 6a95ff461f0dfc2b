//go:build amd64 && !purego

#include "textflag.h"

// The vector body of VecMat, out = x·wt over a transposed weight wt
// (len(x) rows of len(o) values). o is first cleared to +0. Then each input
// x[k] is tested for ±0 by its bits shifted left by one (dropping the sign),
// and a zero input skips its weight row unread. A nonzero x[k] is broadcast
// to every lane, and each lane of its row computes VMULPD x, w → p (x is
// the first operand) and then VADDPD o, p → o (the accumulator is the first
// operand): the two operations of Dot's loop in its operand order, with no
// fused multiply-add, so every bit matches ABT's, NaN payloads included.
// The encoding rules of axpy_amd64.s hold here too: VEX only, VZEROUPPER
// before RET, X15 and R14 untouched.
//
// Registers: SI x cursor, R8 inputs left, DI weight row, DX o, R9 len(o),
// R10 weight row stride (bytes); BX, R11 and CX the column loop's weight
// cursor, o cursor and columns left; Y0 the broadcast x[k].

// func vecMatF64(x, w, o []float64)
TEXT ·vecMatF64(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R8
	MOVQ w_base+24(FP), DI
	MOVQ o_base+48(FP), DX
	MOVQ o_len+56(FP), R9
	LEAQ (R9*8), R10

	// o = +0.
	VXORPD Y1, Y1, Y1
	MOVQ   DX, R11
	MOVQ   R9, CX

zero4_64:
	CMPQ    CX, $4
	JLT     zero1_64
	VMOVUPD Y1, (R11)
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     zero4_64

zero1_64:
	TESTQ  CX, CX
	JEQ    row64
	VMOVSD X1, (R11)
	ADDQ   $8, R11
	DECQ   CX
	JMP    zero1_64

row64:
	TESTQ R8, R8
	JEQ   done64
	MOVQ  (SI), AX
	SHLQ  $1, AX
	JEQ   next64
	VBROADCASTSD (SI), Y0
	MOVQ  DI, BX
	MOVQ  DX, R11
	MOVQ  R9, CX

col16_64:
	CMPQ    CX, $16
	JLT     col4_64
	VMULPD  (BX), Y0, Y1
	VMULPD  32(BX), Y0, Y2
	VMULPD  64(BX), Y0, Y3
	VMULPD  96(BX), Y0, Y4
	VMOVUPD (R11), Y5
	VMOVUPD 32(R11), Y6
	VMOVUPD 64(R11), Y7
	VMOVUPD 96(R11), Y8
	VADDPD  Y1, Y5, Y5
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y5, (R11)
	VMOVUPD Y6, 32(R11)
	VMOVUPD Y7, 64(R11)
	VMOVUPD Y8, 96(R11)
	ADDQ    $128, BX
	ADDQ    $128, R11
	SUBQ    $16, CX
	JMP     col16_64

col4_64:
	CMPQ    CX, $4
	JLT     col1_64
	VMULPD  (BX), Y0, Y1
	VMOVUPD (R11), Y5
	VADDPD  Y1, Y5, Y5
	VMOVUPD Y5, (R11)
	ADDQ    $32, BX
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     col4_64

col1_64:
	TESTQ  CX, CX
	JEQ    next64
	VMOVSD (BX), X1
	VMULSD X1, X0, X1
	VMOVSD (R11), X5
	VADDSD X1, X5, X5
	VMOVSD X5, (R11)
	ADDQ   $8, BX
	ADDQ   $8, R11
	DECQ   CX
	JMP    col1_64

next64:
	ADDQ $8, SI
	ADDQ R10, DI
	DECQ R8
	JMP  row64

done64:
	VZEROUPPER
	RET

// func vecMatF32(x, w, o []float32)
//
// The float32 body: the same loops on 8-lane YMM registers (VMULPS,
// VADDPS), 32, 8 and then 1 column at a time.
TEXT ·vecMatF32(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R8
	MOVQ w_base+24(FP), DI
	MOVQ o_base+48(FP), DX
	MOVQ o_len+56(FP), R9
	LEAQ (R9*4), R10

	// o = +0.
	VXORPS Y1, Y1, Y1
	MOVQ   DX, R11
	MOVQ   R9, CX

zero8_32:
	CMPQ    CX, $8
	JLT     zero1_32
	VMOVUPS Y1, (R11)
	ADDQ    $32, R11
	SUBQ    $8, CX
	JMP     zero8_32

zero1_32:
	TESTQ  CX, CX
	JEQ    row32
	VMOVSS X1, (R11)
	ADDQ   $4, R11
	DECQ   CX
	JMP    zero1_32

row32:
	TESTQ R8, R8
	JEQ   done32
	MOVL  (SI), AX
	SHLL  $1, AX
	JEQ   next32
	VBROADCASTSS (SI), Y0
	MOVQ  DI, BX
	MOVQ  DX, R11
	MOVQ  R9, CX

col32_32:
	CMPQ    CX, $32
	JLT     col8_32
	VMULPS  (BX), Y0, Y1
	VMULPS  32(BX), Y0, Y2
	VMULPS  64(BX), Y0, Y3
	VMULPS  96(BX), Y0, Y4
	VMOVUPS (R11), Y5
	VMOVUPS 32(R11), Y6
	VMOVUPS 64(R11), Y7
	VMOVUPS 96(R11), Y8
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y5, (R11)
	VMOVUPS Y6, 32(R11)
	VMOVUPS Y7, 64(R11)
	VMOVUPS Y8, 96(R11)
	ADDQ    $128, BX
	ADDQ    $128, R11
	SUBQ    $32, CX
	JMP     col32_32

col8_32:
	CMPQ    CX, $8
	JLT     col1_32
	VMULPS  (BX), Y0, Y1
	VMOVUPS (R11), Y5
	VADDPS  Y1, Y5, Y5
	VMOVUPS Y5, (R11)
	ADDQ    $32, BX
	ADDQ    $32, R11
	SUBQ    $8, CX
	JMP     col8_32

col1_32:
	TESTQ  CX, CX
	JEQ    next32
	VMOVSS (BX), X1
	VMULSS X1, X0, X1
	VMOVSS (R11), X5
	VADDSS X1, X5, X5
	VMOVSS X5, (R11)
	ADDQ   $4, BX
	ADDQ   $4, R11
	DECQ   CX
	JMP    col1_32

next32:
	ADDQ $4, SI
	ADDQ R10, DI
	DECQ R8
	JMP  row32

done32:
	VZEROUPPER
	RET
