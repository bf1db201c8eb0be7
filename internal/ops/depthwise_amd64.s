//go:build amd64 && !purego

#include "textflag.h"

// func depthwise4(band, wts, bias *float64, dst *float32, plane, kh, kw, dx, dy, sx, rowAdv, seg, ow, n int) (nan bool)
//
// The depthwise stencil of four output channels at once over a
// channel-interleaved band (conv.go, depthwise): every band position holds
// the four channels' float64 inputs, so one VFMADD231PD per tap advances
// the four channels of one output. band points at the first output's
// top-left tap; wts holds the kh·kw taps ky-outer, four channels each; bias
// the four addends. Band strides are in float64 elements: dx and dy step
// one tap right and down, sx one output right, rowAdv from just past the
// end of a whole output row to the start of the next. seg outputs remain in
// the first output row, ow in every later one, n in all.
//
// Each accumulator starts at +0 and takes its taps ky-outer, kx-inner. The
// products of widened float32 values are exact in float64, so each FMA
// rounds where acc += w*x rounds. The bias is added with VADDPD (acc first),
// the sum rounded to float32 with VCVTPD2PSY, and the four channels are
// written to four output planes plane float32 elements apart, dst the
// first output of the first. Four outputs at a time are transposed in
// registers (one 16-byte store per plane); the rest of a row goes one by
// one. The tap loops start on 32-byte boundaries (PCALIGN; a new tap row
// jumps back to the aligned head, so its padding runs once per output), so
// their speed does not move with the linker's placement of the routine.
// nan reports that some accumulator was NaN: which NaN propagates may
// differ from the Go loops, which redo such a group.
TEXT ·depthwise4(SB), NOSPLIT, $8-113
	MOVQ band+0(FP), BX
	MOVQ bias+16(FP), AX
	VMOVUPD (AX), Y13
	MOVQ dst+24(FP), DI
	MOVQ plane+32(FP), R13
	SHLQ $2, R13              // plane stride, bytes
	LEAQ (R13)(R13*2), R14    // 3 planes, bytes
	MOVQ dx+56(FP), R11
	SHLQ $3, R11              // tap step right, bytes
	MOVQ dy+64(FP), R12
	SHLQ $3, R12              // tap step down, bytes
	MOVQ sx+72(FP), R9
	SHLQ $3, R9               // output step right, bytes
	LEAQ (R9)(R9*2), R10      // 3 output steps, bytes
	MOVQ seg+88(FP), R15
	MOVQ n+104(FP), AX
	MOVQ AX, left-8(SP)       // outputs not yet begun
	VXORPD Y14, Y14, Y14      // NaN lanes seen

row:
	SUBQ R15, left-8(SP)
	CMPQ R15, $4
	JLT  ones

quad:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   wts+8(FP), AX
	MOVQ   BX, SI
	MOVQ   BX, CX
	MOVQ   kh+40(FP), R8
	MOVQ   kw+48(FP), DX

	PCALIGN $32
quadKX:
	VMOVUPD     (AX), Y4
	VFMADD231PD (CX), Y4, Y0
	VFMADD231PD (CX)(R9*1), Y4, Y1
	VFMADD231PD (CX)(R9*2), Y4, Y2
	VFMADD231PD (CX)(R10*1), Y4, Y3
	ADDQ        $32, AX
	ADDQ        R11, CX
	DECQ        DX
	JNZ         quadKX
	ADDQ        R12, SI       // the next tap row
	MOVQ        SI, CX
	MOVQ        kw+48(FP), DX
	DECQ        R8
	JNZ         quadKX

	VCMPPD     $3, Y1, Y0, Y5 // unordered: a NaN in either
	VCMPPD     $3, Y3, Y2, Y6
	VORPD      Y6, Y5, Y5
	VORPD      Y5, Y14, Y14
	VADDPD     Y13, Y0, Y0
	VADDPD     Y13, Y1, Y1
	VADDPD     Y13, Y2, Y2
	VADDPD     Y13, Y3, Y3
	VCVTPD2PSY Y0, X0         // output 0, channels 0–3
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VUNPCKLPS  X1, X0, X4     // o0c0 o1c0 o0c1 o1c1
	VUNPCKHPS  X1, X0, X5     // o0c2 o1c2 o0c3 o1c3
	VUNPCKLPS  X3, X2, X6     // o2c0 o3c0 o2c1 o3c1
	VUNPCKHPS  X3, X2, X7     // o2c2 o3c2 o2c3 o3c3
	VMOVLHPS   X6, X4, X0     // channel 0, outputs 0–3
	VMOVHLPS   X4, X6, X1     // channel 1
	VMOVLHPS   X7, X5, X2     // channel 2
	VMOVHLPS   X5, X7, X3     // channel 3
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, (DI)(R13*1)
	VMOVUPS    X2, (DI)(R13*2)
	VMOVUPS    X3, (DI)(R14*1)
	ADDQ       $16, DI
	LEAQ       (BX)(R9*4), BX
	SUBQ       $4, R15
	CMPQ       R15, $4
	JGE        quad

ones:
	TESTQ R15, R15
	JZ    rowEnd

one:
	VXORPD Y0, Y0, Y0
	MOVQ   wts+8(FP), AX
	MOVQ   BX, SI
	MOVQ   BX, CX
	MOVQ   kh+40(FP), R8
	MOVQ   kw+48(FP), DX

	PCALIGN $32
oneKX:
	VMOVUPD     (CX), Y4
	VFMADD231PD (AX), Y4, Y0
	ADDQ        $32, AX
	ADDQ        R11, CX
	DECQ        DX
	JNZ         oneKX
	ADDQ        R12, SI
	MOVQ        SI, CX
	MOVQ        kw+48(FP), DX
	DECQ        R8
	JNZ         oneKX

	VCMPPD     $3, Y0, Y0, Y5
	VORPD      Y5, Y14, Y14
	VADDPD     Y13, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVSS     X0, (DI)
	VEXTRACTPS $1, X0, (DI)(R13*1)
	VEXTRACTPS $2, X0, (DI)(R13*2)
	VEXTRACTPS $3, X0, (DI)(R14*1)
	ADDQ       $4, DI
	ADDQ       R9, BX
	DECQ       R15
	JNZ        one

rowEnd:
	MOVQ left-8(SP), R15
	TESTQ R15, R15
	JZ    done
	MOVQ  rowAdv+80(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, BX              // the next row's first output
	MOVQ  ow+96(FP), AX
	CMPQ  R15, AX
	CMOVQGT AX, R15           // it has min(ow, left) outputs
	JMP   row

done:
	VMOVMSKPD Y14, AX
	TESTL     AX, AX
	SETNE     nan+112(FP)
	VZEROUPPER
	RET

// func interleave4(dst *float64, x0, x1, x2, x3 *float32, n int)
//
// dst[4t + l] = float64(xl[t]) for t < n, n a positive multiple of 4: the
// channel-interleaved band row of four planes. Four columns at a time, the
// four planes' 16-byte runs are transposed in registers (the same network
// depthwise4 writes its outputs with) and each column's four channels
// widened with VCVTPS2PD, which is exact and quiets a signaling NaN as
// Go's float64() does.
TEXT ·interleave4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x0+8(FP), AX
	MOVQ x1+16(FP), BX
	MOVQ x2+24(FP), CX
	MOVQ x3+32(FP), DX
	MOVQ n+40(FP), SI
	XORQ R8, R8               // plane offset, bytes

	PCALIGN $32
interleave:
	VMOVUPS   (AX)(R8*1), X0  // channel 0, columns 0–3
	VMOVUPS   (BX)(R8*1), X1
	VMOVUPS   (CX)(R8*1), X2
	VMOVUPS   (DX)(R8*1), X3
	VUNPCKLPS X1, X0, X4      // c0t0 c1t0 c0t1 c1t1
	VUNPCKHPS X1, X0, X5      // c0t2 c1t2 c0t3 c1t3
	VUNPCKLPS X3, X2, X6      // c2t0 c3t0 c2t1 c3t1
	VUNPCKHPS X3, X2, X7      // c2t2 c3t2 c2t3 c3t3
	VMOVLHPS  X6, X4, X0      // column 0, channels 0–3
	VMOVHLPS  X4, X6, X1      // column 1
	VMOVLHPS  X7, X5, X2      // column 2
	VMOVHLPS  X5, X7, X3      // column 3
	VCVTPS2PD X0, Y0
	VCVTPS2PD X1, Y1
	VCVTPS2PD X2, Y2
	VCVTPS2PD X3, Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	ADDQ      $16, R8
	ADDQ      $128, DI
	SUBQ      $4, SI
	JNZ       interleave
	VZEROUPPER
	RET
