#include "textflag.h"

// The stream bodies of stream.go's kernels. Each walks its output with
// one loop of two arms: while the output address is not on a 32-byte
// boundary, or fewer than eight floats are left, the scalar arm computes
// one float and stores it; otherwise the vector arm computes eight, in
// two registers of four lanes, and stores them with VMOVNTPD, which
// faults on an unaligned address. So the scalar arm peels the head up to
// the first boundary and takes the tail. A lane does the Go body's
// statement in its order: VMULPD then VADDPD, never VFMADD*, and every
// sum starts from +0 (VXORPD). Each function ends with SFENCE, which
// orders the streamed stores before every later store, and VZEROUPPER.
//
// A [][]float64 is walked as its slice headers, 24 bytes each, whose
// first word is the data pointer.

// func scaleNT(dst *[]float64, nd int, f *float64, src *float64, n int)
//
// For each tile of Tile floats of src, output i in turn writes
// f[i]·src[x] into dst[i][x] for the x of the tile: src is read from
// memory once and from L1 nd times. Y15 is f[i], broadcast.
TEXT ·scaleNT(SB), NOSPLIT, $0-40
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), R8
	SHLQ $3, R8            // end of src, bytes
	XORQ R9, R9            // tile start, bytes

scaleTile:
	CMPQ R9, R8
	JAE  scaleDone
	LEAQ 16384(R9), R10    // tile end, bytes: Tile floats on
	CMPQ R10, R8
	CMOVQHI R8, R10
	MOVQ dst+0(FP), BX
	MOVQ f+16(FP), R11
	MOVQ nd+8(FP), DX

scaleOutput:
	MOVQ (BX), DI
	VBROADCASTSD (R11), Y15
	MOVQ R9, AX            // byte offset into src and dst[i]

scaleLoop:
	CMPQ AX, R10
	JAE  scaleNext
	LEAQ 64(AX), CX
	CMPQ CX, R10
	JA   scaleScalar
	LEAQ (DI)(AX*1), R12
	TESTQ $31, R12
	JNZ  scaleScalar
	VMULPD (SI)(AX*1), Y15, Y0
	VMULPD 32(SI)(AX*1), Y15, Y1
	VMOVNTPD Y0, (DI)(AX*1)
	VMOVNTPD Y1, 32(DI)(AX*1)
	MOVQ CX, AX
	JMP  scaleLoop

scaleScalar:
	VMULSD (SI)(AX*1), X15, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	JMP  scaleLoop

scaleNext:
	ADDQ $24, BX
	ADDQ $8, R11
	DECQ DX
	JNZ  scaleOutput
	MOVQ R10, R9
	JMP  scaleTile

scaleDone:
	SFENCE
	VZEROUPPER
	RET

// func scaledSumNT(dst *float64, n int, terms *[]float64, groups *int, ng int, s float64)
//
// dst[x] = (0 + G₀[x] + G₁[x] + …)·s, where G_g = 0 + the next groups[g]
// terms: Y0 and Y1 (X0 on the scalar arm) are the running sum from +0,
// Y2 and Y3 (X2) sum each group from +0 before it is added in, then one
// multiply by s (Y14) before the store. R13 walks groups, BX the terms.
// SumInto's body is this one with one group and s = 1, which returns
// every sum's bits as they are.
TEXT ·scaledSumNT(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	SHLQ $3, R8            // end of dst, bytes
	MOVQ terms+16(FP), R9
	MOVQ ng+32(FP), R10
	VBROADCASTSD s+40(FP), Y14
	XORQ AX, AX            // byte offset into dst and every term

scaledLoop:
	CMPQ AX, R8
	JAE  scaledDone
	MOVQ R9, BX
	MOVQ groups+24(FP), R13
	MOVQ R10, DX
	LEAQ 64(AX), CX
	CMPQ CX, R8
	JA   scaledScalar
	LEAQ (DI)(AX*1), R12
	TESTQ $31, R12
	JNZ  scaledScalar
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

scaledGroup:
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ (R13), R12        // terms left in the group
	TESTQ R12, R12
	JZ   scaledGroupDone

scaledTerm:
	MOVQ (BX), R11
	VADDPD (R11)(AX*1), Y2, Y2
	VADDPD 32(R11)(AX*1), Y3, Y3
	ADDQ $24, BX
	DECQ R12
	JNZ  scaledTerm

scaledGroupDone:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	ADDQ $8, R13
	DECQ DX
	JNZ  scaledGroup
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y1, Y1
	VMOVNTPD Y0, (DI)(AX*1)
	VMOVNTPD Y1, 32(DI)(AX*1)
	MOVQ CX, AX
	JMP  scaledLoop

scaledScalar:
	VXORPD X0, X0, X0

scaledScalarGroup:
	VXORPD X2, X2, X2
	MOVQ (R13), R12
	TESTQ R12, R12
	JZ   scaledScalarGroupDone

scaledScalarTerm:
	MOVQ (BX), R11
	VADDSD (R11)(AX*1), X2, X2
	ADDQ $24, BX
	DECQ R12
	JNZ  scaledScalarTerm

scaledScalarGroupDone:
	VADDSD X2, X0, X0
	ADDQ $8, R13
	DECQ DX
	JNZ  scaledScalarGroup
	VMULSD X14, X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	JMP  scaledLoop

scaledDone:
	SFENCE
	VZEROUPPER
	RET

// func weightedSumNT(dst *float64, n int, terms *[]float64, f *float64, nt int)
//
// dst[x] = 0 + f[0]·terms[0][x] + f[1]·terms[1][x] + …, skipping every
// term whose f is ±0 (its bits shifted left by one are zero). Y2 is f[t],
// broadcast; Y3 and Y4 (X3 on the scalar arm) its products.
TEXT ·weightedSumNT(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	SHLQ $3, R8            // end of dst, bytes
	MOVQ terms+16(FP), R9
	MOVQ nt+32(FP), R10
	XORQ AX, AX            // byte offset into dst and every term

weightedLoop:
	CMPQ AX, R8
	JAE  weightedDone
	MOVQ R9, BX
	MOVQ f+24(FP), R13
	MOVQ R10, DX
	LEAQ 64(AX), CX
	CMPQ CX, R8
	JA   weightedScalar
	LEAQ (DI)(AX*1), R12
	TESTQ $31, R12
	JNZ  weightedScalar
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

weightedTerm:
	MOVQ (R13), R12
	SHLQ $1, R12
	JZ   weightedSkip
	MOVQ (BX), R11
	VBROADCASTSD (R13), Y2
	VMULPD (R11)(AX*1), Y2, Y3
	VADDPD Y3, Y0, Y0
	VMULPD 32(R11)(AX*1), Y2, Y4
	VADDPD Y4, Y1, Y1

weightedSkip:
	ADDQ $24, BX
	ADDQ $8, R13
	DECQ DX
	JNZ  weightedTerm
	VMOVNTPD Y0, (DI)(AX*1)
	VMOVNTPD Y1, 32(DI)(AX*1)
	MOVQ CX, AX
	JMP  weightedLoop

weightedScalar:
	VXORPD X0, X0, X0

weightedScalarTerm:
	MOVQ (R13), R12
	SHLQ $1, R12
	JZ   weightedScalarSkip
	MOVQ (BX), R11
	VMOVSD (R13), X2
	VMULSD (R11)(AX*1), X2, X3
	VADDSD X3, X0, X0

weightedScalarSkip:
	ADDQ $24, BX
	ADDQ $8, R13
	DECQ DX
	JNZ  weightedScalarTerm
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	JMP  weightedLoop

weightedDone:
	SFENCE
	VZEROUPPER
	RET
