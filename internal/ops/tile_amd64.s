//go:build amd64 && !purego

#include "textflag.h"

// func tile4x8(a *float64, kk int, b *float32, bRS int, acc *float64, w, strips, passes int, first bool) (nan bool)
//
// For each of strips 8-column strips of B, and within a strip for each of
// passes 4-row passes over it, eight YMM float64 accumulators (Y0–Y7: two
// per row) stay in registers for the whole K loop. A is the packed
// micro-panel mulTileAcc widened: pass p's element (r, k) at
// a + 32·p·kk + 4k + r, in float64 elements, so per k the 8 B values are
// widened with VCVTPS2PD, each of the 4 A values is broadcast straight from
// memory with VBROADCASTSD, and every accumulator takes one VFMADD231PD.
// The accumulators start at +0 when first is set, else at what acc holds
// (the sums of an earlier K-block); they are then stored to acc (row stride
// w), and Y14 collects which of them are NaN. B is read at b + k·bRS + j,
// in elements.
TEXT ·tile4x8(SB), NOSPLIT, $0-73
	MOVQ kk+8(FP), R9
	MOVQ b+16(FP), DI
	MOVQ bRS+24(FP), R10
	MOVQ acc+32(FP), DX
	MOVQ w+40(FP), R11
	MOVQ strips+48(FP), R12
	SHLQ $5, R9               // one pass of packed A, bytes: 4 rows of kk float64
	SHLQ $2, R10              // B row stride, bytes
	SHLQ $3, R11              // acc row stride, bytes
	VXORPD Y14, Y14, Y14      // NaN lanes seen

strip:
	MOVQ a+0(FP), SI
	MOVQ DX, R14
	MOVQ passes+56(FP), R13

pass:
	LEAQ    (R14)(R11*2), R15 // acc row 2
	CMPB    first+64(FP), $0
	JEQ     resume
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	JMP     sums

resume:
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD (R14)(R11*1), Y2
	VMOVUPD 32(R14)(R11*1), Y3
	VMOVUPD (R15), Y4
	VMOVUPD 32(R15), Y5
	VMOVUPD (R15)(R11*1), Y6
	VMOVUPD 32(R15)(R11*1), Y7

sums:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ kk+8(FP), CX

	PCALIGN $32
k:
	VCVTPS2PD    (BX), Y8
	VCVTPS2PD    16(BX), Y9
	VBROADCASTSD (AX), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(AX), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(AX), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(AX), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $32, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          k

	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, (R14)(R11*1)
	VMOVUPD Y3, 32(R14)(R11*1)
	VMOVUPD Y4, (R15)
	VMOVUPD Y5, 32(R15)
	VMOVUPD Y6, (R15)(R11*1)
	VMOVUPD Y7, 32(R15)(R11*1)
	LEAQ    (R15)(R11*2), R14 // acc row 4: the next pass
	VCMPPD  $3, Y1, Y0, Y8    // unordered: a NaN in either
	VCMPPD  $3, Y3, Y2, Y9
	VCMPPD  $3, Y5, Y4, Y10
	VCMPPD  $3, Y7, Y6, Y11
	VORPD   Y9, Y8, Y8
	VORPD   Y11, Y10, Y10
	VORPD   Y10, Y8, Y8
	VORPD   Y8, Y14, Y14
	ADDQ    R9, SI            // the next pass's packed rows
	DECQ    R13
	JNZ     pass

	ADDQ $32, DI              // next strip: 8 float32 of B
	ADDQ $64, DX              // and 8 float64 of acc
	DECQ R12
	JNZ  strip

	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     nan+72(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func finishPD(dst *float32, acc *float64, n int, alpha, c float64)
//
// Four accumulators at a time: VMULPD by alpha and VADDPD of c, the
// accumulator the first source of both (it is the NaN an operation with two
// NaN operands returns, as in the Go loop), then VCVTPD2PSY rounds to
// float32 under the MXCSR's round-to-nearest-even, which is Go's float32().
TEXT ·finishPD(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y1
	VBROADCASTSD c+32(FP), Y2

	PCALIGN $32
finish:
	VMOVUPD    (SI), Y0
	VMULPD     Y1, Y0, Y0
	VADDPD     Y2, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        finish
	VZEROUPPER
	RET
