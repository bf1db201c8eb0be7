//go:build amd64 && !purego

#include "textflag.h"

// func tile4x8(a *float32, ai, ak, kk int, b *float32, bRS int, acc *float64, w, strips, passes int) (nan bool)
//
// For each of strips 8-column strips of B, and within a strip for each of
// passes 4-row passes over it, eight YMM float64 accumulators (Y0–Y7: two
// per row) stay in registers for the whole K loop. Per k, the 8 B values are
// widened with VCVTPS2PD, each of the 4 A values is widened with VCVTSS2SD
// and broadcast with VBROADCASTSD, and every accumulator takes one
// VFMADD231PD. The accumulators are then stored to acc (row stride w), and
// Y14 collects which of them are NaN. A is read at a + r·ai + k·ak, B at
// b + k·bRS + j, in elements.
TEXT ·tile4x8(SB), NOSPLIT, $0-81
	MOVQ ai+8(FP), R8
	MOVQ ak+16(FP), R9
	MOVQ b+32(FP), DI
	MOVQ bRS+40(FP), R10
	MOVQ acc+48(FP), DX
	MOVQ w+56(FP), R11
	MOVQ strips+64(FP), R12
	SHLQ $2, R8               // A row stride, bytes
	SHLQ $2, R9               // A k stride, bytes
	SHLQ $2, R10              // B row stride, bytes
	SHLQ $3, R11              // acc row stride, bytes
	LEAQ (R8)(R8*2), R15      // 3·ai, bytes
	VXORPD X15, X15, X15      // merge source of VCVTSS2SD: no dependency on the last k
	VXORPD Y14, Y14, Y14      // NaN lanes seen

strip:
	MOVQ a+0(FP), SI
	MOVQ DX, R14
	MOVQ passes+72(FP), R13

pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ kk+24(FP), CX

k:
	VCVTPS2PD    (BX), Y8
	VCVTPS2PD    16(BX), Y9
	VCVTSS2SD    (AX), X15, X10
	VBROADCASTSD X10, Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VCVTSS2SD    (AX)(R8*1), X15, X11
	VBROADCASTSD X11, Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VCVTSS2SD    (AX)(R8*2), X15, X12
	VBROADCASTSD X12, Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VCVTSS2SD    (AX)(R15*1), X15, X13
	VBROADCASTSD X13, Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R9, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          k

	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, (R14)(R11*1)
	VMOVUPD Y3, 32(R14)(R11*1)
	LEAQ    (R14)(R11*2), R14
	VMOVUPD Y4, (R14)
	VMOVUPD Y5, 32(R14)
	VMOVUPD Y6, (R14)(R11*1)
	VMOVUPD Y7, 32(R14)(R11*1)
	LEAQ    (R14)(R11*2), R14 // acc row 4: the next pass
	VCMPPD  $3, Y1, Y0, Y8    // unordered: a NaN in either
	VCMPPD  $3, Y3, Y2, Y9
	VCMPPD  $3, Y5, Y4, Y10
	VCMPPD  $3, Y7, Y6, Y11
	VORPD   Y9, Y8, Y8
	VORPD   Y11, Y10, Y10
	VORPD   Y10, Y8, Y8
	VORPD   Y8, Y14, Y14
	LEAQ    (SI)(R8*4), SI    // A row 4
	DECQ    R13
	JNZ     pass

	ADDQ $32, DI              // next strip: 8 float32 of B
	ADDQ $64, DX              // and 8 float64 of acc
	DECQ R12
	JNZ  strip

	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     nan+80(FP)
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
