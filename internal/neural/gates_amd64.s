#include "textflag.h"

// The gate nonlinearities four lanes at a time: every lane replays the
// scalar code it replaces operation for operation — math.archExp's FMA
// path (math/exp_amd64.s, taken when math's useFMA is set), then
// sigmoid's 1/(1+e) or math.tanh's two branches — with the same
// constants, in the same order, fused exactly where the scalar code is
// fused and nowhere else. Go's three-operand form is OP src2, src1, dst
// with dst = src1 op src2; FMA forms follow the same reversal
// (VFMADD213PD m, b, a: a = b·a + m).

// expk holds each constant four times, so that every packed operation
// can take it straight from memory. The exp constants are
// math/exp_amd64.s's, spelled the same way.
DATA expk<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2(e)
DATA expk<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expk<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expk<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA expk<>+32(SB)/8, $0.69314718055966295651160180568695068359375 // upper half of ln 2
DATA expk<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA expk<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA expk<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA expk<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
DATA expk<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expk<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expk<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expk<>+96(SB)/8, $0.0625
DATA expk<>+104(SB)/8, $0.0625
DATA expk<>+112(SB)/8, $0.0625
DATA expk<>+120(SB)/8, $0.0625
DATA expk<>+128(SB)/8, $2.4801587301587301587e-5 // Taylor coefficients, highest first
DATA expk<>+136(SB)/8, $2.4801587301587301587e-5
DATA expk<>+144(SB)/8, $2.4801587301587301587e-5
DATA expk<>+152(SB)/8, $2.4801587301587301587e-5
DATA expk<>+160(SB)/8, $1.9841269841269841270e-4
DATA expk<>+168(SB)/8, $1.9841269841269841270e-4
DATA expk<>+176(SB)/8, $1.9841269841269841270e-4
DATA expk<>+184(SB)/8, $1.9841269841269841270e-4
DATA expk<>+192(SB)/8, $1.3888888888888888889e-3
DATA expk<>+200(SB)/8, $1.3888888888888888889e-3
DATA expk<>+208(SB)/8, $1.3888888888888888889e-3
DATA expk<>+216(SB)/8, $1.3888888888888888889e-3
DATA expk<>+224(SB)/8, $8.3333333333333333333e-3
DATA expk<>+232(SB)/8, $8.3333333333333333333e-3
DATA expk<>+240(SB)/8, $8.3333333333333333333e-3
DATA expk<>+248(SB)/8, $8.3333333333333333333e-3
DATA expk<>+256(SB)/8, $4.1666666666666666667e-2
DATA expk<>+264(SB)/8, $4.1666666666666666667e-2
DATA expk<>+272(SB)/8, $4.1666666666666666667e-2
DATA expk<>+280(SB)/8, $4.1666666666666666667e-2
DATA expk<>+288(SB)/8, $1.6666666666666666667e-1
DATA expk<>+296(SB)/8, $1.6666666666666666667e-1
DATA expk<>+304(SB)/8, $1.6666666666666666667e-1
DATA expk<>+312(SB)/8, $1.6666666666666666667e-1
DATA expk<>+320(SB)/8, $0.5
DATA expk<>+328(SB)/8, $0.5
DATA expk<>+336(SB)/8, $0.5
DATA expk<>+344(SB)/8, $0.5
DATA expk<>+352(SB)/8, $1.0
DATA expk<>+360(SB)/8, $1.0
DATA expk<>+368(SB)/8, $1.0
DATA expk<>+376(SB)/8, $1.0
DATA expk<>+384(SB)/8, $2.0
DATA expk<>+392(SB)/8, $2.0
DATA expk<>+400(SB)/8, $2.0
DATA expk<>+408(SB)/8, $2.0
DATA expk<>+416(SB)/8, $7.09782712893384e+02 // archExp's overflow threshold
DATA expk<>+424(SB)/8, $7.09782712893384e+02
DATA expk<>+432(SB)/8, $7.09782712893384e+02
DATA expk<>+440(SB)/8, $7.09782712893384e+02
DATA expk<>+448(SB)/8, $0x8000000000000000 // sign bit
DATA expk<>+456(SB)/8, $0x8000000000000000
DATA expk<>+464(SB)/8, $0x8000000000000000
DATA expk<>+472(SB)/8, $0x8000000000000000
DATA expk<>+480(SB)/8, $0x7fffffffffffffff // all but the sign bit
DATA expk<>+488(SB)/8, $0x7fffffffffffffff
DATA expk<>+496(SB)/8, $0x7fffffffffffffff
DATA expk<>+504(SB)/8, $0x7fffffffffffffff
DATA expk<>+512(SB)/8, $0.625 // math.tanh's branch points
DATA expk<>+520(SB)/8, $0.625
DATA expk<>+528(SB)/8, $0.625
DATA expk<>+536(SB)/8, $0.625
DATA expk<>+544(SB)/8, $44.0148459655565271479940 // 0.5·MAXLOG
DATA expk<>+552(SB)/8, $44.0148459655565271479940
DATA expk<>+560(SB)/8, $44.0148459655565271479940
DATA expk<>+568(SB)/8, $44.0148459655565271479940
DATA expk<>+576(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA expk<>+584(SB)/8, $-9.64399179425052238628e-1
DATA expk<>+592(SB)/8, $-9.64399179425052238628e-1
DATA expk<>+600(SB)/8, $-9.64399179425052238628e-1
DATA expk<>+608(SB)/8, $-9.92877231001918586564e1
DATA expk<>+616(SB)/8, $-9.92877231001918586564e1
DATA expk<>+624(SB)/8, $-9.92877231001918586564e1
DATA expk<>+632(SB)/8, $-9.92877231001918586564e1
DATA expk<>+640(SB)/8, $-1.61468768441708447952e3
DATA expk<>+648(SB)/8, $-1.61468768441708447952e3
DATA expk<>+656(SB)/8, $-1.61468768441708447952e3
DATA expk<>+664(SB)/8, $-1.61468768441708447952e3
DATA expk<>+672(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA expk<>+680(SB)/8, $1.12811678491632931402e2
DATA expk<>+688(SB)/8, $1.12811678491632931402e2
DATA expk<>+696(SB)/8, $1.12811678491632931402e2
DATA expk<>+704(SB)/8, $2.23548839060100448583e3
DATA expk<>+712(SB)/8, $2.23548839060100448583e3
DATA expk<>+720(SB)/8, $2.23548839060100448583e3
DATA expk<>+728(SB)/8, $2.23548839060100448583e3
DATA expk<>+736(SB)/8, $4.84406305325125486048e3
DATA expk<>+744(SB)/8, $4.84406305325125486048e3
DATA expk<>+752(SB)/8, $4.84406305325125486048e3
DATA expk<>+760(SB)/8, $4.84406305325125486048e3
DATA expk<>+768(SB)/4, $0x3ff // exponent bias, four int32 lanes
DATA expk<>+772(SB)/4, $0x3ff
DATA expk<>+776(SB)/4, $0x3ff
DATA expk<>+780(SB)/4, $0x3ff
DATA expk<>+784(SB)/4, $0x7fe // largest biased exponent of a finite float64
DATA expk<>+788(SB)/4, $0x7fe
DATA expk<>+792(SB)/4, $0x7fe
DATA expk<>+796(SB)/4, $0x7fe
GLOBL expk<>(SB), RODATA|NOPTR, $800

#define LOG2E expk<>+0(SB)
#define LN2U expk<>+32(SB)
#define LN2L expk<>+64(SB)
#define SIXTEENTH expk<>+96(SB)
#define C8 expk<>+128(SB)
#define C7 expk<>+160(SB)
#define C6 expk<>+192(SB)
#define C5 expk<>+224(SB)
#define C4 expk<>+256(SB)
#define C3 expk<>+288(SB)
#define HALF expk<>+320(SB)
#define ONE expk<>+352(SB)
#define TWO expk<>+384(SB)
#define OVERFLOW expk<>+416(SB)
#define SIGN expk<>+448(SB)
#define ABS expk<>+480(SB)
#define TANHSMALL expk<>+512(SB)
#define TANHBIG expk<>+544(SB)
#define P0 expk<>+576(SB)
#define P1 expk<>+608(SB)
#define P2 expk<>+640(SB)
#define Q0 expk<>+672(SB)
#define Q1 expk<>+704(SB)
#define Q2 expk<>+736(SB)
#define BIAS expk<>+768(SB)
#define MAXEXP expk<>+784(SB)

// EXP replaces the four lanes of Y0 by their exponentials, replaying
// archExp's FMA path: n = round(x·log2 e); r = x − n·LN2U − n·LN2L,
// fused; r /= 16; the Taylor polynomial in FMAs; four squarings of
// (1+r)−1 as r·(r+2), the last one fused with the +1; then the result
// times 2ⁿ. It leaves the biased exponent n+0x3FF in X2 and clobbers
// Y1 and Y3. The 2ⁿ product is right only for lanes that archExp takes
// through its normal path: lanes whose x is not finite or exceeds the
// overflow threshold, or whose biased exponent is ≤ 0 (denormal or
// zero) or ≥ 0x7FF (+Inf), are flagged by EXPSPECIAL.
#define EXP \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      C8, Y1; \
	VFMADD213PD  C7, Y0, Y1; \
	VFMADD213PD  C6, Y0, Y1; \
	VFMADD213PD  C5, Y0, Y1; \
	VFMADD213PD  C4, Y0, Y1; \
	VFMADD213PD  C3, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPADDD       BIAS, X2, X2; \
	VPMOVZXDQ    X2, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y0, Y0

// EXPSPECIAL sets DX to a nonzero lane mask when a lane of the x in Y4
// (the exponential's argument) with the biased exponent in X2 (left by
// EXP) is not one archExp computes through its normal path: x NaN or
// above the overflow threshold, +Inf included (VCMPPD predicate 0x16,
// "not less or equal", is true for NaN), or a biased exponent ≤ 0 or
// > 0x7FE (-Inf and very negative x land here). It clobbers Y1, X3 and
// AX.
#define EXPSPECIAL \
	VCMPPD    $0x16, OVERFLOW, Y4, Y1; \
	VMOVMSKPD Y1, DX; \
	VPXOR     X3, X3, X3; \
	VPCMPGTD  X3, X2, X3; \
	VMOVMSKPS X3, AX; \
	XORL      $15, AX; \
	ORL       AX, DX; \
	VPCMPGTD  MAXEXP, X2, X3; \
	VMOVMSKPS X3, AX; \
	ORL       AX, DX

// func expAVX(dst, x []float64) int
TEXT ·expAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ BX, BX
	JMP  exptest

exploop:
	VMOVUPD (SI)(BX*8), Y0
	VMOVAPD Y0, Y4
	EXP
	EXPSPECIAL
	TESTL   DX, DX
	JNZ     expdone
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX

exptest:
	CMPQ BX, CX
	JLT  exploop

expdone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func sigmoidAVX(dst, x []float64) int
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	VMOVUPD ONE, Y5
	XORQ BX, BX
	JMP  sigtest

sigloop:
	// 1 / (1 + exp(−x))
	VMOVUPD (SI)(BX*8), Y0
	VXORPD  SIGN, Y0, Y0
	VMOVAPD Y0, Y4
	EXP
	EXPSPECIAL
	TESTL   DX, DX
	JNZ     sigdone
	VADDPD  Y5, Y0, Y0
	VDIVPD  Y0, Y5, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX

sigtest:
	CMPQ BX, CX
	JLT  sigloop

sigdone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX(dst, x []float64)
//
// Every lane computes both of math.tanh's formulas and then keeps the
// one its branch takes: ±1 above 0.5·MAXLOG, 1 − 2/(exp(2|x|)+1) with
// x's sign from 0.625 up, x itself at ±0, and the rational
// approximation below (and for NaN). The middle branch's exponent is
// always normal — 2|x| lies in [1.25, 88.03] there — so no lane needs
// math.Exp's special cases; what EXP computes for lanes outside that
// branch is discarded.
TEXT ·tanhAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ BX, BX
	JMP  tanhtest

tanhloop:
	VMOVUPD (SI)(BX*8), Y8
	VANDPD  ABS, Y8, Y9  // z = |x|
	VANDPD  SIGN, Y8, Y10 // x's sign bit

	// z ≥ 0.625: 1 − 2/(exp(2z)+1), negated for x < 0 (the value is
	// positive, so setting the sign bit negates it)
	VADDPD  Y9, Y9, Y0
	EXP
	VADDPD  ONE, Y0, Y0
	VMOVUPD TWO, Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD ONE, Y0
	VSUBPD  Y1, Y0, Y0
	VORPD   Y10, Y0, Y0

	// z < 0.625: x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2), s = x·x
	VMULPD Y8, Y8, Y1
	VMULPD P0, Y1, Y2
	VADDPD P1, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD P2, Y2, Y2
	VADDPD Q0, Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Q1, Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Q2, Y3, Y3
	VMULPD Y1, Y8, Y4
	VMULPD Y2, Y4, Y4
	VDIVPD Y3, Y4, Y4
	VADDPD Y4, Y8, Y4

	// Keep the branch each lane takes, the later test winning.
	VCMPPD    $0x1d, TANHSMALL, Y9, Y5 // z ≥ 0.625
	VBLENDVPD Y5, Y0, Y4, Y4
	VCMPPD    $0x1e, TANHBIG, Y9, Y5   // z > 0.5·MAXLOG: ±1
	VORPD     ONE, Y10, Y6
	VBLENDVPD Y5, Y6, Y4, Y4
	VXORPD    Y6, Y6, Y6
	VCMPPD    $0x00, Y6, Y8, Y5        // x == ±0: x
	VBLENDVPD Y5, Y8, Y4, Y4
	VMOVUPD   Y4, (DI)(BX*8)
	ADDQ      $4, BX

tanhtest:
	CMPQ BX, CX
	JLT  tanhloop
	VZEROUPPER
	RET

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  none
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x1000, CX // FMA (leaf 1, ECX bit 12)
	JZ   none
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX   // AVX2 (leaf 7, EBX bit 5)
	JZ   none
	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET
