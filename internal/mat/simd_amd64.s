#include "textflag.h"

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

// func mulStrip4AVX2(dst, a, b *float64, kk, n int)
//
// Register use: SI, R11, R12, R13 point at the four rows of a; DX at
// column j of b's row 0 and BX walks it down the k rows; DI at column j
// of dst's row 0; AX is the byte offset k·8 into the a rows; R9 = kk·8
// (the row stride of a and the bound of AX); R10 = n·8 (the row stride
// of b and dst); CX counts the 8-column tiles left. Y0–Y7 accumulate a
// 4×8 tile (row r in Y(2r), Y(2r+1)); Y8–Y9 hold b[k][j:j+8], Y10–Y11
// the broadcast a[r][k], Y12–Y15 the products.
TEXT ·mulStrip4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kk+24(FP), R9
	MOVQ n+32(FP), R10
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R10, CX
	SHRQ $6, CX

tile8:
	TESTQ CX, CX
	JZ    tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DX, BX
	XORQ   AX, AX

k8:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI)(AX*1), Y10
	VBROADCASTSD (R11)(AX*1), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R12)(AX*1), Y10
	VBROADCASTSD (R13)(AX*1), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         R10, BX
	ADDQ         $8, AX
	CMPQ         AX, R9
	JLT          k8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, 32(DI)(R10*2)
	LEAQ    (DI)(R10*2), R8
	VMOVUPD Y6, (R8)(R10*1)
	VMOVUPD Y7, 32(R8)(R10*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    CX
	JMP     tile8

tile4:
	// One 4×4 tile when n mod 8 ≥ 4, i.e. bit 5 of n·8 is set.
	TESTQ  $32, R10
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DX, BX
	XORQ   AX, AX

k4:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (SI)(AX*1), Y10
	VBROADCASTSD (R11)(AX*1), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y8, Y11, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (R12)(AX*1), Y10
	VBROADCASTSD (R13)(AX*1), Y11
	VMULPD       Y8, Y10, Y14
	VMULPD       Y8, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	ADDQ         R10, BX
	ADDQ         $8, AX
	CMPQ         AX, R9
	JLT          k4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R10*1)
	VMOVUPD Y2, (DI)(R10*2)
	LEAQ    (DI)(R10*2), R8
	VMOVUPD Y3, (R8)(R10*1)

done:
	VZEROUPPER
	RET
