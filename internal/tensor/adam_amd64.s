//go:build amd64 && !purego

#include "textflag.h"

// The vector body of AdamUpdate, on the useAVX check of axpy_amd64.s. It is
// VEX-encoded throughout, runs VZEROUPPER before RET and leaves X15 and R14
// alone, as axpyAVX does. Each lane runs adamGo's operations as the Go
// compiler emits them, every operation with the same first source operand,
// which decides the NaN payload when both are NaN:
//
//	m' = ((1−β1)·g) + (m·β1)
//	v' = (g·((1−β2)·g)) + (v·β2)
//	value −= ((m'/c1)·LR) / (sqrt(v'/c2) + ε)
//	g = +0
//
// No fused multiply-add and no reciprocal: three VDIVPD and one VSQRTPD per
// four lanes bound the loop, so it is not unrolled further.

DATA adamOne<>+0(SB)/8, $1.0
GLOBL adamOne<>(SB), RODATA|NOPTR, $8

// func adamAVX(value, grad, m, v []float64, k AdamCoeffs)
TEXT ·adamAVX(SB), NOSPLIT, $0-144
	MOVQ         value_base+0(FP), AX
	MOVQ         value_len+8(FP), CX
	MOVQ         grad_base+24(FP), BX
	MOVQ         m_base+48(FP), SI
	MOVQ         v_base+72(FP), DI
	VBROADCASTSD k_Beta1+96(FP), Y0
	VBROADCASTSD k_Beta2+104(FP), Y2
	VBROADCASTSD k_LR+112(FP), Y6
	VBROADCASTSD k_Eps+120(FP), Y7
	VBROADCASTSD k_C1+128(FP), Y4
	VBROADCASTSD k_C2+136(FP), Y5
	VBROADCASTSD adamOne<>(SB), Y1
	VSUBPD       Y2, Y1, Y3            // 1−β2
	VSUBPD       Y0, Y1, Y1            // 1−β1
	VXORPD       Y13, Y13, Y13

loop4:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD (BX), Y8
	VMOVUPD (SI), Y9
	VMULPD  Y0, Y9, Y9   // m·β1
	VMULPD  Y8, Y1, Y10  // (1−β1)·g
	VADDPD  Y9, Y10, Y10 // m'
	VMOVUPD Y10, (SI)
	VMOVUPD (DI), Y9
	VMULPD  Y2, Y9, Y9   // v·β2
	VMULPD  Y8, Y3, Y11  // (1−β2)·g
	VMULPD  Y11, Y8, Y11 // g·((1−β2)·g)
	VADDPD  Y9, Y11, Y11 // v'
	VMOVUPD Y11, (DI)
	VDIVPD  Y4, Y10, Y10 // m'/c1
	VDIVPD  Y5, Y11, Y11 // v'/c2
	VMULPD  Y6, Y10, Y10 // ·LR
	VSQRTPD Y11, Y11
	VADDPD  Y7, Y11, Y11 // +ε
	VDIVPD  Y11, Y10, Y10
	VMOVUPD (AX), Y9
	VSUBPD  Y10, Y9, Y9
	VMOVUPD Y9, (AX)
	VMOVUPD Y13, (BX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     loop4

tail:
	TESTQ   CX, CX
	JEQ     done
	VMOVSD  (BX), X8
	VMOVSD  (SI), X9
	VMULSD  X0, X9, X9
	VMULSD  X8, X1, X10
	VADDSD  X9, X10, X10
	VMOVSD  X10, (SI)
	VMOVSD  (DI), X9
	VMULSD  X2, X9, X9
	VMULSD  X8, X3, X11
	VMULSD  X11, X8, X11
	VADDSD  X9, X11, X11
	VMOVSD  X11, (DI)
	VDIVSD  X4, X10, X10
	VDIVSD  X5, X11, X11
	VMULSD  X6, X10, X10
	VSQRTSD X11, X11, X11
	VADDSD  X7, X11, X11
	VDIVSD  X11, X10, X10
	VMOVSD  (AX), X9
	VSUBSD  X10, X9, X9
	VMOVSD  X9, (AX)
	VMOVSD  X13, (BX)
	ADDQ    $8, AX
	ADDQ    $8, BX
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JMP     tail

done:
	VZEROUPPER
	RET
