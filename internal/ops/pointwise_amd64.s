//go:build amd64 && !purego

#include "textflag.h"

// The typed loops of a pointwise program (program.go) over 8 float32 lanes
// per AVX2 instruction. Each routine runs n elements, n a positive multiple
// of 8, reading a (and b) and writing d at the same offsets one 8-lane group
// at a time, so d may alias a or b. Each loop starts on a 64-byte boundary
// (PCALIGN), so its speed does not move with the code linked ahead of it.
//
// Every routine is bit-exact by construction: it performs the float32
// operations of the Go function it stands for in the same order with the
// same first operand (which NaN a two-NaN operation returns), and no fused
// multiply-add. maxf(a, b) and minf(a, b) are VMAXPS and VMINPS with a as the
// first source, since a > b ? a : b is MAXPS's own rule. VDIVPS, VMULPS and
// VSQRTPS round correctly, as Go's float32 / and * and sqrtf do. The bit
// tricks (relu, pow2, flushTiny, below, FAST_PATH's bound test, Neg, Abs)
// are integer or bitwise lane operations.
//
// Constants are rows of simdConsts (pointwise_amd64.go), 8 lanes each, taken
// as memory operands; the row order there is the offset order here.

#define C_ABS ·simdConsts+0(SB)
#define C_SIGN ·simdConsts+32(SB)
#define C_ONE ·simdConsts+64(SB)
#define C_TWO ·simdConsts+96(SB)
#define C_TINY ·simdConsts+128(SB)
#define C_EXP_HI ·simdConsts+160(SB)
#define C_SIGMOID_HI ·simdConsts+192(SB)
#define C_LOG2E ·simdConsts+224(SB)
#define C_SHIFTER ·simdConsts+256(SB)
#define C_LN2HI ·simdConsts+288(SB)
#define C_LN2LO ·simdConsts+320(SB)
#define C_EXPC2 ·simdConsts+352(SB)
#define C_EXPC3 ·simdConsts+384(SB)
#define C_EXPC4 ·simdConsts+416(SB)
#define C_EXPC5 ·simdConsts+448(SB)
#define C_EXPC6 ·simdConsts+480(SB)
#define C_TANH_MAX ·simdConsts+512(SB)
#define C_TANH_SPLIT ·simdConsts+544(SB)
#define C_TANHC1 ·simdConsts+576(SB)
#define C_TANHC2 ·simdConsts+608(SB)
#define C_TANHC3 ·simdConsts+640(SB)
#define C_TANHC4 ·simdConsts+672(SB)
#define C_TANHC5 ·simdConsts+704(SB)
#define C_ERF_MAX ·simdConsts+736(SB)
#define C_ERF_SPLIT ·simdConsts+768(SB)
#define C_ERF_MID ·simdConsts+800(SB)
#define C_ERFS0 ·simdConsts+832(SB)
#define C_ERFS1 ·simdConsts+864(SB)
#define C_ERFS2 ·simdConsts+896(SB)
#define C_ERFS3 ·simdConsts+928(SB)
#define C_ERFS4 ·simdConsts+960(SB)
#define C_ERFS5 ·simdConsts+992(SB)
#define C_ERFS6 ·simdConsts+1024(SB)
#define C_ERFM0 ·simdConsts+1056(SB)
#define C_ERFM1 ·simdConsts+1088(SB)
#define C_ERFM2 ·simdConsts+1120(SB)
#define C_ERFM3 ·simdConsts+1152(SB)
#define C_ERFM4 ·simdConsts+1184(SB)
#define C_ERFM5 ·simdConsts+1216(SB)
#define C_ERFM6 ·simdConsts+1248(SB)
#define C_ERFM7 ·simdConsts+1280(SB)
#define C_ERFM8 ·simdConsts+1312(SB)
#define C_RELU_BIAS ·simdConsts+1344(SB)
#define C_RELU_LIMIT ·simdConsts+1376(SB)

// EXP_REDUCE is expReduce: p, k = expReduce(x). n and r are clobbered, x is
// kept.
#define EXP_REDUCE(x, p, k, n, r) \
	VMULPS C_LOG2E, x, k; \
	VADDPS C_SHIFTER, k, k; \
	VSUBPS C_SHIFTER, k, n; \
	VMULPS C_LN2HI, n, r; \
	VSUBPS r, x, r; \
	VMULPS C_LN2LO, n, n; \
	VSUBPS n, r, r; \
	VMULPS C_EXPC6, r, p; \
	VADDPS C_EXPC5, p, p; \
	VMULPS r, p, p; \
	VADDPS C_EXPC4, p, p; \
	VMULPS r, p, p; \
	VADDPS C_EXPC3, p, p; \
	VMULPS r, p, p; \
	VADDPS C_EXPC2, p, p; \
	VMULPS r, p, p; \
	VADDPS C_ONE, p, p; \
	VMULPS r, p, p; \
	VADDPS C_ONE, p, p

// POW2 is pow2, in place: k's bits shifted into the exponent field plus
// 127<<23 (the bits of 1), wrapping as uint32 does.
#define POW2(k) \
	VPSLLD $23, k, k; \
	VPADDD C_ONE, k, k

// FAST_PATH jumps to stop if a lane of x is off the fast path, |x|'s bits
// above hi (a NaN is above every hi), and else flushes every lane with |x|
// up to 2⁻³⁰ to +0 in place, as flushTiny does: expReduce(+0) is p = 1 with
// pow2(k) = 1, the 1 that expTail returns there, and 1/(1+1) is sigmoid32's
// 1/2. Clobbers Y14, Y15 and BX.
#define FAST_PATH(x, hi, stop) \
	VPAND     C_ABS, x, Y15; \
	VPCMPGTD  hi, Y15, Y14; \
	VMOVMSKPS Y14, BX; \
	TESTL     BX, BX; \
	JNE       stop; \
	VPCMPGTD  C_TINY, Y15, Y15; \
	VPAND     Y15, x, x

// The loop shapes: each is the whole body of a routine, reading its
// arguments by the names of the Go declaration. A routine is its TEXT line
// and one shape.

// BINARY(op) is func(d, a, b *float32, n int): d = a op b, a the first
// source.
#define BINARY(op) \
	MOVQ d+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX; \
	XORQ AX, AX; \
	PCALIGN $64; \
loop: \
	VMOVUPS (SI)(AX*4), Y0; \
	op      (DX)(AX*4), Y0, Y0; \
	VMOVUPS Y0, (DI)(AX*4); \
	ADDQ    $8, AX; \
	CMPQ    AX, CX; \
	JB      loop; \
	VZEROUPPER; \
	RET

// EACH(body) is the loop of the one-operand shapes: body maps x in Y0 to
// Y0 for every group of the n elements at SI, the result stored at DI.
#define EACH(body) \
	XORQ    AX, AX; \
	PCALIGN $64; \
loop: \
	VMOVUPS (SI)(AX*4), Y0; \
	body; \
	VMOVUPS Y0, (DI)(AX*4); \
	ADDQ    $8, AX; \
	CMPQ    AX, CX; \
	JB      loop; \
	VZEROUPPER; \
	RET

// CONST(body) is func(d, a *float32, c float32, n int): EACH(body) with c
// in every lane of Y1.
#define CONST(body) \
	MOVQ         d+0(FP), DI; \
	MOVQ         a+8(FP), SI; \
	VBROADCASTSS c+16(FP), Y1; \
	MOVQ         n+24(FP), CX; \
	EACH(body)

// UNARY(body) is func(d, a *float32, n int): EACH(body) with 1 in every
// lane of Y1.
#define UNARY(body) \
	MOVQ    d+0(FP), DI; \
	MOVQ    a+8(FP), SI; \
	MOVQ    n+16(FP), CX; \
	VMOVUPS C_ONE, Y1; \
	EACH(body)

// The bodies. Neg and Abs are sign-bit operations: Go's -x flips the sign
// bit of every float32, a NaN's included, and absf clears it. LeakyRelu
// selects by the compare x < 0, not by the sign bit, so −0 and a negative
// NaN stay as they are, as in the Go loop.
#define ADD_C VADDPS Y1, Y0, Y0
#define MUL_C VMULPS Y1, Y0, Y0
#define LEAKY_RELU \
	VXORPS    Y2, Y2, Y2; \
	VCMPPS    $1, Y2, Y0, Y2; \
	VMULPS    Y0, Y1, Y3; \
	VBLENDVPS Y2, Y3, Y0, Y0
#define NEG VXORPS C_SIGN, Y0, Y0
#define ABS VANDPS C_ABS, Y0, Y0
#define SQUARE VMULPS Y0, Y0, Y0
#define RECIPROCAL VDIVPS Y0, Y1, Y0
#define SQRT VSQRTPS Y0, Y0

// func addPS(d, a, b *float32, n int)
TEXT ·addPS(SB), NOSPLIT, $0-32
	BINARY(VADDPS)

// func subPS(d, a, b *float32, n int)
TEXT ·subPS(SB), NOSPLIT, $0-32
	BINARY(VSUBPS)

// func mulPS(d, a, b *float32, n int)
TEXT ·mulPS(SB), NOSPLIT, $0-32
	BINARY(VMULPS)

// func divPS(d, a, b *float32, n int)
TEXT ·divPS(SB), NOSPLIT, $0-32
	BINARY(VDIVPS)

// func minPS(d, a, b *float32, n int)
TEXT ·minPS(SB), NOSPLIT, $0-32
	BINARY(VMINPS)

// func maxPS(d, a, b *float32, n int)
TEXT ·maxPS(SB), NOSPLIT, $0-32
	BINARY(VMAXPS)

// func addConstPS(d, a *float32, c float32, n int)
TEXT ·addConstPS(SB), NOSPLIT, $0-32
	CONST(ADD_C)

// func mulConstPS(d, a *float32, c float32, n int)
TEXT ·mulConstPS(SB), NOSPLIT, $0-32
	CONST(MUL_C)

// func leakyReluPS(d, a *float32, c float32, n int)
TEXT ·leakyReluPS(SB), NOSPLIT, $0-32
	CONST(LEAKY_RELU)

// func negPS(d, a *float32, n int)
TEXT ·negPS(SB), NOSPLIT, $0-24
	UNARY(NEG)

// func absPS(d, a *float32, n int)
TEXT ·absPS(SB), NOSPLIT, $0-24
	UNARY(ABS)

// func squarePS(d, a *float32, n int)
TEXT ·squarePS(SB), NOSPLIT, $0-24
	UNARY(SQUARE)

// func reciprocalPS(d, a *float32, n int)
TEXT ·reciprocalPS(SB), NOSPLIT, $0-24
	UNARY(RECIPROCAL)

// func sqrtPS(d, a *float32, n int)
TEXT ·sqrtPS(SB), NOSPLIT, $0-24
	UNARY(SQRT)

// func reluPS(d, a *float32, n int)
//
// relu keeps x's bits u where u−1 < 0x7f800000 unsigned (+subnormal up to
// +Inf), else writes +0. Adding 0x7fffffff is u−1 with the sign bit flipped,
// which turns that unsigned compare into a signed one against 0xff800000.
TEXT ·reluPS(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPS C_RELU_LIMIT, Y2
	XORQ    AX, AX

	PCALIGN $64
relu:
	VMOVUPS  (SI)(AX*4), Y0
	VPADDD   C_RELU_BIAS, Y0, Y1
	VPCMPGTD Y1, Y2, Y1         // mask: u−1 < 0x7f800000 unsigned
	VPAND    Y0, Y1, Y0
	VMOVUPS  Y0, (DI)(AX*4)
	ADDQ     $8, AX
	CMPQ     AX, CX
	JB       relu
	VZEROUPPER
	RET

// func clipPS(d, a *float32, lo, hi float32, n int)
//
// minf(maxf(x, lo), hi); with lo = +0 this is ReLU6's minf(relu(x), hi), as
// maxf(x, +0) is relu(x) bit for bit.
TEXT ·clipPS(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         a+8(FP), SI
	VBROADCASTSS lo+16(FP), Y1
	VBROADCASTSS hi+20(FP), Y2
	MOVQ         n+24(FP), CX
	XORQ         AX, AX

	PCALIGN $64
clip:
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  Y1, Y0, Y0     // maxf(x, lo)
	VMINPS  Y2, Y0, Y0     // minf(·, hi)
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      clip
	VZEROUPPER
	RET

// func expPS(d, a *float32, n int) (done int)
//
// expf's fast path, p·pow2(k), group by group until a group has a lane off
// it (NaN or above 87): done is the number of elements written, the offset
// of that group.
TEXT ·expPS(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

	PCALIGN $64
exp:
	VMOVUPS (SI)(AX*4), Y0
	FAST_PATH(Y0, C_EXP_HI, expDone)
	EXP_REDUCE(Y0, Y1, Y2, Y3, Y4)
	POW2(Y2)
	VMULPS  Y2, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      exp

expDone:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

// func sigmoidPS(d, a *float32, n int) (done int)
//
// sigmoid32's fast path, 1/(1 + p·pow2(k)) at −x, group by group like expPS.
TEXT ·sigmoidPS(SB), NOSPLIT, $0-32
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPS C_ONE, Y13
	XORQ    AX, AX

	PCALIGN $64
sigmoid:
	VMOVUPS (SI)(AX*4), Y0
	FAST_PATH(Y0, C_SIGMOID_HI, sigmoidDone)
	VXORPS  C_SIGN, Y0, Y0 // −x (a flushed lane is −0: expReduce(−0) is 1 too)
	EXP_REDUCE(Y0, Y1, Y2, Y3, Y4)
	POW2(Y2)
	VMULPS  Y2, Y1, Y1
	VADDPS  Y1, Y13, Y1    // 1 + ·
	VDIVPS  Y1, Y13, Y1    // 1 / ·
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      sigmoid

sigmoidDone:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

// func tanhPS(d, a *float32, n int)
//
// tanh32 whole: its only branch is the clamp a > 10, which is
// VMINPS(10, a) (a NaN stays).
TEXT ·tanhPS(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPS C_TANH_MAX, Y11
	VMOVUPS C_TWO, Y12
	VMOVUPS C_ONE, Y13
	XORQ    AX, AX

	PCALIGN $64
tanh:
	VMOVUPS  (SI)(AX*4), Y0 // x
	VPAND    C_ABS, Y0, Y1  // a
	VMINPS   Y1, Y11, Y1    // a > 10: 10
	VPCMPGTD C_TINY, Y1, Y2
	VPAND    Y1, Y2, Y2     // ap = flushTiny(a)
	VMULPS   Y2, Y2, Y3     // z
	VMULPS   Y3, Y3, Y4     // z2
	VMULPS   C_TANHC5, Y3, Y5
	VADDPS   C_TANHC4, Y5, Y5
	VMULPS   Y4, Y5, Y5
	VMULPS   C_TANHC3, Y3, Y6
	VADDPS   C_TANHC2, Y6, Y6
	VADDPS   Y6, Y5, Y5
	VMULPS   Y3, Y5, Y5
	VADDPS   C_TANHC1, Y5, Y5 // q
	VMULPS   Y3, Y2, Y6
	VMULPS   Y5, Y6, Y6
	VADDPS   Y1, Y6, Y6       // small
	VADDPS   Y2, Y2, Y7       // ap + ap
	EXP_REDUCE(Y7, Y8, Y9, Y10, Y5)
	POW2(Y9)
	VMULPS   Y9, Y8, Y8
	VADDPS   Y13, Y8, Y8      // · + 1
	VDIVPS   Y8, Y12, Y8      // 2 / ·
	VSUBPS   Y8, Y13, Y8      // large = 1 − ·
	VPSUBD   C_TANH_SPLIT, Y1, Y2
	VBLENDVPS Y2, Y6, Y8, Y2  // below: a < split (the difference's sign) ? small : large
	VPAND    C_SIGN, Y0, Y0
	VPOR     Y0, Y2, Y2       // x's sign
	VMOVUPS  Y2, (DI)(AX*4)
	ADDQ     $8, AX
	CMPQ     AX, CX
	JB       tanh
	VZEROUPPER
	RET

// func erfPS(d, a *float32, n int)
//
// erf32 whole: its only branch is the clamp a > 4, which is VMINPS(4, a).
TEXT ·erfPS(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPS C_ERF_MAX, Y11
	VMOVUPS C_ONE, Y13
	XORQ    AX, AX

	PCALIGN $64
erf:
	VMOVUPS  (SI)(AX*4), Y0 // x
	VPAND    C_ABS, Y0, Y1  // a
	VMINPS   Y1, Y11, Y1    // a > 4: 4
	VPCMPGTD C_TINY, Y1, Y2
	VPAND    Y1, Y2, Y2     // ap = flushTiny(a)
	VMULPS   Y2, Y2, Y3     // z
	VMULPS   Y3, Y3, Y4     // z2
	VMULPS   C_ERFS6, Y3, Y5
	VADDPS   C_ERFS5, Y5, Y5
	VMULPS   Y4, Y5, Y5
	VMULPS   C_ERFS4, Y3, Y6
	VADDPS   C_ERFS3, Y6, Y6
	VADDPS   Y6, Y5, Y5
	VMULPS   Y4, Y5, Y5
	VMULPS   C_ERFS2, Y3, Y6
	VADDPS   C_ERFS1, Y6, Y6
	VADDPS   Y6, Y5, Y5
	VMULPS   Y3, Y5, Y5
	VADDPS   C_ERFS0, Y5, Y5  // q
	VMULPS   Y5, Y1, Y5       // a·q
	VADDPS   Y1, Y5, Y5       // small
	VSUBPS   C_ERF_MID, Y1, Y6 // t
	VMULPS   Y6, Y6, Y7       // t2
	VMULPS   Y7, Y7, Y8       // t4
	VMULPS   C_ERFM8, Y6, Y9
	VADDPS   C_ERFM7, Y9, Y9
	VMULPS   Y7, Y9, Y9
	VMULPS   C_ERFM6, Y6, Y10
	VADDPS   C_ERFM5, Y10, Y10
	VADDPS   Y10, Y9, Y9
	VMULPS   Y8, Y9, Y9       // m·t4
	VMULPS   C_ERFM4, Y6, Y10
	VADDPS   C_ERFM3, Y10, Y10
	VMULPS   Y7, Y10, Y10
	VMULPS   C_ERFM2, Y6, Y8
	VADDPS   C_ERFM1, Y8, Y8
	VADDPS   Y8, Y10, Y10
	VADDPS   Y10, Y9, Y9
	VMULPS   Y6, Y9, Y9
	VADDPS   C_ERFM0, Y9, Y9  // m
	VSUBPS   Y3, Y9, Y9       // m − z
	EXP_REDUCE(Y9, Y2, Y3, Y4, Y6)
	POW2(Y3)
	VMULPS   Y3, Y2, Y2
	VSUBPS   Y2, Y13, Y2      // large = 1 − ·
	VPSUBD   C_ERF_SPLIT, Y1, Y3
	VBLENDVPS Y3, Y5, Y2, Y2  // below: a < split ? small : large
	VPAND    C_SIGN, Y0, Y0
	VPOR     Y0, Y2, Y2       // x's sign
	VMOVUPS  Y2, (DI)(AX*4)
	ADDQ     $8, AX
	CMPQ     AX, CX
	JB       erf
	VZEROUPPER
	RET
