#include "go_asm.h"
#include "textflag.h"

// The kernels perform the scalar loops' operations (kernels.go) four
// lanes at a time, in the same order and with the same rounding points;
// AVX1 only, no FMA. (The gate nonlinearities, which do replay FMAs,
// are in gates_amd64.s.) Go's three-operand form is OP src2, src1, dst with
// dst = src1 op src2.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// ADAMMOMENTS and ADAMUPDATE update the four parameters at offset BX,
// with the constants in Y0–Y9 as adamAVX loads them; between them the
// first moment m (Y12) may be bias-corrected.
#define ADAMMOMENTS \
	VMOVUPD (SI)(BX*8), Y10; \
	VMULPD  Y0, Y10, Y10; \
	VMOVUPD (DI)(BX*8), Y11; \
	VMULPD  Y1, Y11, Y12; \
	VADDPD  Y10, Y12, Y10; \
	VMOVUPD (R8)(BX*8), Y12; \
	VMULPD  Y2, Y12, Y12; \
	VMULPD  Y10, Y3, Y13; \
	VADDPD  Y12, Y13, Y12; \
	VMOVUPD Y12, (R8)(BX*8); \
	VMOVUPD (R9)(BX*8), Y13; \
	VMULPD  Y4, Y13, Y13; \
	VMULPD  Y10, Y5, Y14; \
	VMULPD  Y10, Y14, Y14; \
	VADDPD  Y13, Y14, Y13; \
	VMOVUPD Y13, (R9)(BX*8)

#define ADAMUPDATE \
	VDIVPD  Y7, Y13, Y13; \
	VMULPD  Y8, Y12, Y12; \
	VSQRTPD Y13, Y13; \
	VADDPD  Y9, Y13, Y13; \
	VDIVPD  Y13, Y12, Y12; \
	VSUBPD  Y12, Y11, Y11; \
	VMOVUPD Y11, (DI)(BX*8); \
	ADDQ    $4, BX

// func adamAVX(w, grad, m, v []float64, k *adamConsts)
//
// Per lane: g := float64(grad·scale) + wd·w, summed as (w·wd) +
// (grad·scale); m = b1·m + (1−b1)·g; v = b2·v + (1−b2)·g·g; then
// w −= lr·(m/b1t) / (√(v/b2t) + eps). From the step at which 1−β₁ᵗ
// rounds to exactly 1 on, m/b1t is m/1 = m, and the second loop skips
// that division: x/1 is x for every x, NaN included as a class.
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	ANDQ $~3, CX
	VBROADCASTSD adamConsts_scale(AX), Y0
	VBROADCASTSD adamConsts_wd(AX), Y1
	VBROADCASTSD adamConsts_b1(AX), Y2
	VBROADCASTSD adamConsts_c1(AX), Y3
	VBROADCASTSD adamConsts_b2(AX), Y4
	VBROADCASTSD adamConsts_c2(AX), Y5
	VBROADCASTSD adamConsts_b1t(AX), Y6
	VBROADCASTSD adamConsts_b2t(AX), Y7
	VBROADCASTSD adamConsts_lr(AX), Y8
	VBROADCASTSD adamConsts_eps(AX), Y9
	XORQ BX, BX
	MOVQ adamConsts_b1t(AX), DX
	MOVQ $0x3ff0000000000000, R10 // 1.0
	CMPQ DX, R10
	JEQ  nob1test
	JMP  adamtest

adamloop:
	ADAMMOMENTS
	VDIVPD Y6, Y12, Y12
	ADAMUPDATE

adamtest:
	CMPQ BX, CX
	JLT  adamloop
	VZEROUPPER
	RET

nob1loop:
	ADAMMOMENTS
	ADAMUPDATE

nob1test:
	CMPQ BX, CX
	JLT  nob1loop
	VZEROUPPER
	RET

// func matVecBackwardAVX(mw, mg, grad, xv, xg []float64, cols int)
TEXT ·matVecBackwardAVX(SB), NOSPLIT, $0-128
	MOVQ mw_base+0(FP), SI
	MOVQ mg_base+24(FP), DI
	MOVQ grad_base+48(FP), R8
	MOVQ grad_len+56(FP), R9
	MOVQ xv_base+72(FP), R10
	MOVQ xg_base+96(FP), R11
	MOVQ cols+120(FP), R12
	MOVQ R12, R13
	ANDQ $~3, R13 // columns the kernel takes
	SHLQ $3, R12  // row stride in bytes
	XORQ AX, AX
	JMP  rowtest

rowloop:
	// Skip a row whose gradient is ±0: no bits set but the sign.
	MOVQ (R8)(AX*8), DX
	SHLQ $1, DX
	JZ   nextrow
	VBROADCASTSD (R8)(AX*8), Y0
	XORQ BX, BX
	JMP  coltest

colloop:
	// mg += xv·gr, then xg += w·gr
	VMOVUPD (R10)(BX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(BX*8), Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	VMOVUPD (SI)(BX*8), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  (R11)(BX*8), Y2, Y2
	VMOVUPD Y2, (R11)(BX*8)
	ADDQ    $4, BX

coltest:
	CMPQ BX, R13
	JLT  colloop

nextrow:
	ADDQ R12, SI
	ADDQ R12, DI
	INCQ AX

rowtest:
	CMPQ AX, R9
	JLT  rowloop
	VZEROUPPER
	RET

// func inputProjAVX(w, x4, out []float64, cols int)
//
// Four rows of w at a time against one group of four timesteps: each
// lane of an accumulator is one timestep's dot product with one row,
// summed from +0 in column order, a product rounded before each add.
TEXT ·inputProjAVX(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), R8
	MOVQ x4_base+24(FP), DX
	MOVQ x4_len+32(FP), R9
	MOVQ out_base+48(FP), DI
	MOVQ cols+72(FP), R10
	TESTQ R10, R10
	JZ    projdone
	LEAQ (SI)(R8*8), R8 // end of w
	LEAQ (DX)(R9*8), R9 // end of x4
	MOVQ R10, R11
	SHLQ $3, R11        // row stride of w in bytes
	LEAQ (R11)(R11*2), R13
	JMP  grouptest

grouploop:
	MOVQ SI, AX // first of the four rows

blockloop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   AX, R12
	MOVQ   DX, CX
	MOVQ   R10, BX

colloop:
	VMOVUPD      (CX), Y4
	VBROADCASTSD (R12), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R12)(R11*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R12)(R11*2), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R12)(R13*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R12
	ADDQ         $32, CX
	DECQ         BX
	JNZ          colloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (AX)(R11*4), AX
	CMPQ    AX, R8
	JLT     blockloop

	MOVQ R10, BX
	SHLQ $5, BX
	ADDQ BX, DX // next group of timesteps

grouptest:
	CMPQ DX, R9
	JLT  grouploop

projdone:
	VZEROUPPER
	RET
