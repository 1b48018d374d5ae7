#include "textflag.h"

// func laneSW32(arena, xt, yt, h *byte, m, n int64)
//
// The AVX2 byte-lane Smith–Waterman column pass: 32 independent pairs of
// one shape, pair l in byte lane l of every YMM register (the BPBC layout
// of the source paper at byte granularity). xt holds the m query rows and
// yt the n text rows, 32 bytes each, row i byte l = base i of pair l. h is
// the H column of the previous text column, m rows of 32 bytes, zeroed by
// the caller before the first chunk and preserved across chunks. Each cell
// is independent across lanes, so there is no lane wrap and no profile:
//
//	t   = diag +sat (x_i == y_j ? match+mismatch : 0)
//	h   = max(t -sat mismatch, max(left, up) -sat gap)
//
// Bases are 2-bit codes, so x_i XOR y_j is 0 exactly where they match and
// always indexes the first four bytes of each 16-byte half of a VPSHUFB
// table holding match+mismatch at byte 0 and zeros elsewhere. That moves
// the match test to the shuffle port, off the two ports every saturating
// add, subtract and max competes for. The row loop is unrolled by two.
//
// arena layout (32-byte rows, filled by the Go wrapper):
//   0 match table | 32 mismatch | 64 gap | 96 best | 128 ovf
// best and ovf are loaded AND stored, so a long text can be fed in chunks
// with a context poll between calls. ovf is the running max of every
// pre-bias add t: a 255 lane means some add may have saturated and that
// pair must be re-scored wider.
//
// Y0 diag (then left), Y1 up (then h), Y2 t, Y3 gap term, Y7 y_j,
// Y8 match table, Y9 mismatch, Y10 gap, Y11 best, Y12 ovf.
// ROW computes one query row of the column at byte offset off past DX.
#define ROW(off) \
	VPXOR    off(SI)(DX*1), Y7, Y2; \
	VPSHUFB  Y2, Y8, Y2; \
	VPADDUSB Y0, Y2, Y2; \
	VPMAXUB  Y2, Y12, Y12; \
	VPSUBUSB Y9, Y2, Y2; \
	VMOVDQU  off(R8)(DX*1), Y0; \
	VPMAXUB  Y0, Y1, Y3; \
	VPSUBUSB Y10, Y3, Y3; \
	VPMAXUB  Y3, Y2, Y1; \
	VPMAXUB  Y1, Y11, Y11; \
	VMOVDQU  Y1, off(R8)(DX*1)

TEXT ·laneSW32(SB), NOSPLIT, $0-48
	MOVQ arena+0(FP), DI
	MOVQ xt+8(FP), SI
	MOVQ yt+16(FP), R9
	MOVQ h+24(FP), R8
	MOVQ m+32(FP), R10
	MOVQ n+40(FP), R11

	VMOVDQU 0(DI), Y8
	VMOVDQU 32(DI), Y9
	VMOVDQU 64(DI), Y10
	VMOVDQU 96(DI), Y11
	VMOVDQU 128(DI), Y12

	SHLQ $5, R10             // column bytes, m*32
	SHLQ $5, R11             // text bytes, n*32
	XORQ BX, BX              // text row offset, j*32

col:
	CMPQ BX, R11
	JGE  done
	VMOVDQU (R9)(BX*1), Y7   // y_j of every lane
	VPXOR   Y0, Y0, Y0       // diag = H(0, j-1) = 0
	VPXOR   Y1, Y1, Y1       // up = H(0, j) = 0
	XORQ    DX, DX           // query row offset, i*32

	CMPQ    R10, $32
	JEQ     last

rows:
	ROW(0)
	ROW(32)
	ADDQ $64, DX
	LEAQ 32(DX), AX
	CMPQ AX, R10
	JLT  rows
	CMPQ DX, R10
	JGE  nextcol

last:
	ROW(0)

nextcol:
	ADDQ $32, BX
	JMP  col

done:
	VMOVDQU Y11, 96(DI)
	VMOVDQU Y12, 128(DI)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
