//go:build amd64 && !purego

#include "textflag.h"

// The vector body of Axpy. Every instruction is VEX-encoded (a legacy-SSE
// instruction after a 256-bit one stalls on the dirty upper YMM halves), and
// VZEROUPPER runs before RET for the caller's SSE code. X15 and R14 are left
// alone (Go's register ABI reserves them). Each lane computes
// VMULPD alpha, x → p (x is the first operand) and then VADDPD y, p → p (the
// product is the first operand), the compiled scalar loop's two operations
// in its operand order, so every result bit, NaN payloads included, matches
// it.

// func axpyAVX(alpha float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI

loop16:
	CMPQ    CX, $16
	JLT     loop4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

loop4:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     loop4

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // bit 27 OSXSAVE, bit 28 AVX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV                // XCR0 into DX:AX
	ANDL  $6, AX          // bit 1 XMM state, bit 2 YMM state
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
