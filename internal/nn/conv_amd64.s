#include "textflag.h"

// func convOctAVX2(sums *[8][ocBlock]float64, out *float64, plane int, bias *[ocBlock]float64, x *float64, w *[ocBlock]float64, inC, rows, k, xRow, xPlane int)
//
// Y0–Y7 accumulate pixels 0–7, one channel a lane. Per tap: one load of
// the four channel weights (Y8), then per pixel a broadcast of its input,
// a multiply and an add. To write the output planes, each half of the
// oct is transposed in registers to one channel a register, four pixels
// as lanes.
TEXT ·convOctAVX2(SB), NOSPLIT, $0-88
	MOVQ x+32(FP), SI      // channel ci's window start
	MOVQ w+40(FP), DX      // channel ci's first weight row
	MOVQ inC+48(FP), CX
	MOVQ k+64(FP), R8
	MOVQ xRow+72(FP), R9
	SHLQ $3, R9            // input row stride, bytes
	MOVQ xPlane+80(FP), R10
	SHLQ $3, R10           // input channel stride, bytes
	MOVQ R8, R11
	IMULQ R8, R11
	SHLQ $5, R11           // weights of one channel, bytes
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

octChannel:
	MOVQ SI, R13           // row start
	MOVQ DX, DI            // weights run on across the channel's rows
	MOVQ rows+56(FP), BX

octRow:
	MOVQ R13, AX
	MOVQ R8, R12

octTap:
	VMOVUPD (DI), Y8
	VBROADCASTSD (AX), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0
	VBROADCASTSD 8(AX), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y1, Y1
	VBROADCASTSD 16(AX), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y2, Y2
	VBROADCASTSD 24(AX), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y3, Y3
	VBROADCASTSD 32(AX), Y13
	VMULPD Y8, Y13, Y13
	VADDPD Y13, Y4, Y4
	VBROADCASTSD 40(AX), Y14
	VMULPD Y8, Y14, Y14
	VADDPD Y14, Y5, Y5
	VBROADCASTSD 48(AX), Y15
	VMULPD Y8, Y15, Y15
	VADDPD Y15, Y6, Y6
	VBROADCASTSD 56(AX), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y7, Y7
	ADDQ $32, DI
	ADDQ $8, AX
	DECQ R12
	JNZ  octTap

	ADDQ R9, R13
	DECQ BX
	JNZ  octRow

	ADDQ R10, SI
	ADDQ R11, DX
	DECQ CX
	JNZ  octChannel

	MOVQ out+8(FP), DI
	TESTQ DI, DI
	JNZ  octPlanes
	MOVQ sums+0(FP), DI
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

octPlanes:
	MOVQ bias+24(FP), SI
	VMOVUPD (SI), Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y8, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y8, Y7, Y7
	MOVQ plane+16(FP), DX
	SHLQ $3, DX            // output plane stride, bytes
	LEAQ (DI)(DX*2), AX    // channel 2's plane

	// Pixels 0–3: Y8–Y11 pair them up by channel parity, Y12–Y15 are
	// channels 0–3.
	VUNPCKLPD Y1, Y0, Y8
	VUNPCKHPD Y1, Y0, Y9
	VUNPCKLPD Y3, Y2, Y10
	VUNPCKHPD Y3, Y2, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, (DI)(DX*1)
	VMOVUPD Y14, (AX)
	VMOVUPD Y15, (AX)(DX*1)

	// Pixels 4–7.
	VUNPCKLPD Y5, Y4, Y8
	VUNPCKHPD Y5, Y4, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VMOVUPD Y12, 32(DI)
	VMOVUPD Y13, 32(DI)(DX*1)
	VMOVUPD Y14, 32(AX)
	VMOVUPD Y15, 32(AX)(DX*1)
	VZEROUPPER
	RET

// func gradXQuadsAVX2(r0, r1, s0, s1, g0, g1, g2, g3 *float64, w *[2][ocBlock]float64, n int, add bool)
//
// Y0–Y3 and Y4–Y7 hold the pair's two rows of block weights, broadcast;
// Y8 and Y9 are four pixels' u0 and u1.
TEXT ·gradXQuadsAVX2(SB), NOSPLIT, $0-81
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ s0+16(FP), R10
	MOVQ s1+24(FP), R11
	MOVQ g0+32(FP), AX
	MOVQ g1+40(FP), BX
	MOVQ g2+48(FP), CX
	MOVQ g3+56(FP), DX
	MOVQ w+64(FP), SI
	MOVQ n+72(FP), DI
	SHLQ $3, DI            // bytes
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD 32(SI), Y4
	VBROADCASTSD 40(SI), Y5
	VBROADCASTSD 48(SI), Y6
	VBROADCASTSD 56(SI), Y7
	XORQ SI, SI            // byte offset of the quad
	CMPB add+80(FP), $0
	JNE  quadsAdd

quadsSet:
	VMOVUPD (R10)(SI*1), Y8
	VMOVUPD (R11)(SI*1), Y9
	VMOVUPD (AX)(SI*1), Y10
	VMULPD Y0, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y4, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (BX)(SI*1), Y10
	VMULPD Y1, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y5, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (CX)(SI*1), Y10
	VMULPD Y2, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y6, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (DX)(SI*1), Y10
	VMULPD Y3, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y7, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD Y8, (R8)(SI*1)
	VMOVUPD Y9, (R9)(SI*1)
	ADDQ $32, SI
	CMPQ SI, DI
	JB   quadsSet
	VZEROUPPER
	RET

quadsAdd:
	VMOVUPD (R10)(SI*1), Y8
	VMOVUPD (R11)(SI*1), Y9
	VMOVUPD (AX)(SI*1), Y10
	VMULPD Y0, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y4, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (BX)(SI*1), Y10
	VMULPD Y1, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y5, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (CX)(SI*1), Y10
	VMULPD Y2, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y6, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD (DX)(SI*1), Y10
	VMULPD Y3, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y7, Y10, Y12
	VADDPD Y12, Y9, Y9
	VADDPD (R8)(SI*1), Y8, Y8
	VADDPD (R9)(SI*1), Y9, Y9
	VMOVUPD Y8, (R8)(SI*1)
	VMOVUPD Y9, (R9)(SI*1)
	ADDQ $32, SI
	CMPQ SI, DI
	JB   quadsAdd
	VZEROUPPER
	RET

// func gradWTapAVX2(acc *[2][ocBlock]float64, gp *[ocBlock]float64, x0, x1 *float64, n, rows, gRow, xRow int)
//
// Y0 and Y1 are the sums of the pair's two input channels, one output
// channel of the block a lane; per pixel, one load of the packed
// gradient (Y2) and a broadcast of each input.
TEXT ·gradWTapAVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ gp+8(FP), R8
	MOVQ x0+16(FP), R9
	MOVQ x1+24(FP), R10
	MOVQ n+32(FP), R11
	MOVQ rows+40(FP), BX
	MOVQ gRow+48(FP), R12
	SHLQ $5, R12           // packed row stride, bytes
	MOVQ xRow+56(FP), R13
	SHLQ $3, R13           // input row stride, bytes

tapRow:
	MOVQ R8, AX
	MOVQ R9, CX
	MOVQ R10, DX
	MOVQ R11, SI

tapPixel:
	VMOVUPD (AX), Y2
	VBROADCASTSD (CX), Y3
	VMULPD Y2, Y3, Y3
	VADDPD Y3, Y0, Y0
	VBROADCASTSD (DX), Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $32, AX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ SI
	JNZ  tapPixel

	ADDQ R12, R8
	ADDQ R13, R9
	ADDQ R13, R10
	DECQ BX
	JNZ  tapRow

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func gradWTap3AVX2(acc *[tapBlock][2][ocBlock]float64, gp *[ocBlock]float64, x0, x1 *float64, n, rows, gRow, xRow int)
//
// Y0–Y5 are taps 0–2 × the pair's two input channels; per pixel, one
// load of the packed gradient (Y6) and six broadcasts, one per tap and
// input channel.
TEXT ·gradWTap3AVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	MOVQ gp+8(FP), R8
	MOVQ x0+16(FP), R9
	MOVQ x1+24(FP), R10
	MOVQ n+32(FP), R11
	MOVQ rows+40(FP), BX
	MOVQ gRow+48(FP), R12
	SHLQ $5, R12           // packed row stride, bytes
	MOVQ xRow+56(FP), R13
	SHLQ $3, R13           // input row stride, bytes

tap3Row:
	MOVQ R8, AX
	MOVQ R9, CX
	MOVQ R10, DX
	MOVQ R11, SI

tap3Pixel:
	VMOVUPD (AX), Y6
	VBROADCASTSD (CX), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD (DX), Y8
	VMULPD Y6, Y8, Y8
	VADDPD Y8, Y1, Y1
	VBROADCASTSD (CX)(R13*1), Y9
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y2, Y2
	VBROADCASTSD (DX)(R13*1), Y10
	VMULPD Y6, Y10, Y10
	VADDPD Y10, Y3, Y3
	VBROADCASTSD (CX)(R13*2), Y11
	VMULPD Y6, Y11, Y11
	VADDPD Y11, Y4, Y4
	VBROADCASTSD (DX)(R13*2), Y12
	VMULPD Y6, Y12, Y12
	VADDPD Y12, Y5, Y5
	ADDQ $32, AX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ SI
	JNZ  tap3Pixel

	ADDQ R12, R8
	ADDQ R13, R9
	ADDQ R13, R10
	DECQ BX
	JNZ  tap3Row

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VZEROUPPER
	RET
