// amd64 byte-row kernels for the avx2/gfni tiers. Callers guarantee:
//   - n > 0 and n%32 == 0
//   - dst/src either identical or non-overlapping
// Remainders never reach these functions; the Go wrappers finish them
// with the scalar reference loops.
//
// Once a function has written a ymm register, every later vector
// instruction in it is VEX-encoded (VMOVQ, not MOVQ AX, X6): a legacy-SSE
// form with the upper halves dirty costs an SSE/AVX transition, ~150 ns
// per call here. The byte kernels' loops are PCALIGNed because a 7- to
// 20-instruction body straddling a 32-byte fetch line measured up to 20%
// slower, depending only on where the linker put the function.

#include "textflag.h"

// func addMulNibAsm(dst, src *byte, n int, tab *byte)
//
// dst[i] ^= c*src[i] via the split-nibble PSHUFB trick: tab is 32 bytes,
// lo[x] = c*(x&mask) then hi[x] = c*((x<<4)&mask), so c*s = lo[s&15] ^
// hi[s>>4]. The body handles 64 bytes as two independent 32-byte chains
// (one chain alone waits on its own shuffle latency); an odd 32-byte
// block is finished by a single-chain step.
TEXT ·addMulNibAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX

	VBROADCASTI128 (AX), Y4   // lo-nibble table in both lanes
	VBROADCASTI128 16(AX), Y5 // hi-nibble table in both lanes
	MOVL           $0x0f, AX
	VMOVQ          AX, X6
	VPBROADCASTB   X6, Y6     // 0x0f byte mask

	CMPQ CX, $64
	JB   nibtail

	PCALIGN $32
nibloop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y2
	VPSRLW  $4, Y0, Y1
	VPSRLW  $4, Y2, Y3
	VPAND   Y6, Y0, Y0 // low nibbles
	VPAND   Y6, Y2, Y2
	VPAND   Y6, Y1, Y1 // high nibbles
	VPAND   Y6, Y3, Y3
	VPSHUFB Y0, Y4, Y0 // lo[s&15]
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y1, Y5, Y1 // hi[s>>4]
	VPSHUFB Y3, Y5, Y3
	VPXOR   Y0, Y1, Y0
	VPXOR   Y2, Y3, Y2
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y2, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     nibloop
	TESTQ   CX, CX
	JZ      nibdone

nibtail:
	VMOVDQU (SI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y0
	VPSHUFB Y1, Y5, Y1
	VPXOR   Y0, Y1, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

nibdone:
	VZEROUPPER
	RET

// func mulNibAsm(v *byte, n int, tab *byte)
//
// In-place v[i] = c*v[i], same split-nibble tables and 64-byte body as
// addMulNibAsm.
TEXT ·mulNibAsm(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ tab+16(FP), AX

	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 16(AX), Y5
	MOVL           $0x0f, AX
	VMOVQ          AX, X6
	VPBROADCASTB   X6, Y6

	CMPQ CX, $64
	JB   scaletail

	PCALIGN $32
scaleloop:
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y2
	VPSRLW  $4, Y0, Y1
	VPSRLW  $4, Y2, Y3
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y2, Y2
	VPAND   Y6, Y1, Y1
	VPAND   Y6, Y3, Y3
	VPSHUFB Y0, Y4, Y0
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y1, Y5, Y1
	VPSHUFB Y3, Y5, Y3
	VPXOR   Y0, Y1, Y0
	VPXOR   Y2, Y3, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     scaleloop
	TESTQ   CX, CX
	JZ      scaledone

scaletail:
	VMOVDQU (DI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y0
	VPSHUFB Y1, Y5, Y1
	VPXOR   Y0, Y1, Y0
	VMOVDQU Y0, (DI)

scaledone:
	VZEROUPPER
	RET

// func addMulGFNIAsm(dst, src *byte, n int, mat uint64)
//
// dst[i] ^= c*src[i], 32 bytes per iteration. mat is the 8x8 GF(2)
// matrix of "multiply by c" packed for VGF2P8AFFINEQB: matrix row i
// (output bit i) sits in qword byte 7-i.
TEXT ·addMulGFNIAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mat+24(FP), AX

	MOVQ         AX, X7
	VPBROADCASTQ X7, Y7

	PCALIGN $32
gfniloop:
	VMOVDQU         (SI), Y0
	VGF2P8AFFINEQB  $0, Y7, Y0, Y0
	VPXOR           (DI), Y0, Y0
	VMOVDQU         Y0, (DI)
	ADDQ            $32, SI
	ADDQ            $32, DI
	SUBQ            $32, CX
	JNZ             gfniloop
	VZEROUPPER
	RET

// func addMulGFNI4Asm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64)
//
// dst[i] ^= mats[0]*srcs[0][i] ^ ... ^ mats[3]*srcs[3][i] over n bytes,
// n > 0 and n%64 == 0: four source rows folded into one pass over dst,
// 64 bytes per iteration as two 32-byte chains. One dst load/store pair
// serves four rows, and eight independent source loads are in flight per
// iteration — on rows that arrive from L3 the single-row loop is bound
// by exactly those two things. Every source block is read before the dst
// block is written, so dst may be exactly one of the sources.
TEXT ·addMulGFNI4Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ srcs+16(FP), AX
	MOVQ mats+24(FP), BX

	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	VPBROADCASTQ 0(BX), Y8
	VPBROADCASTQ 8(BX), Y9
	VPBROADCASTQ 16(BX), Y10
	VPBROADCASTQ 24(BX), Y11
	XORQ         DX, DX

	PCALIGN $32
gfni4loop:
	VMOVDQU         (R8)(DX*1), Y0
	VMOVDQU         32(R8)(DX*1), Y1
	VMOVDQU         (R9)(DX*1), Y2
	VMOVDQU         32(R9)(DX*1), Y3
	VMOVDQU         (R10)(DX*1), Y4
	VMOVDQU         32(R10)(DX*1), Y5
	VMOVDQU         (R11)(DX*1), Y6
	VMOVDQU         32(R11)(DX*1), Y7
	VGF2P8AFFINEQB  $0, Y8, Y0, Y0
	VGF2P8AFFINEQB  $0, Y8, Y1, Y1
	VGF2P8AFFINEQB  $0, Y9, Y2, Y2
	VGF2P8AFFINEQB  $0, Y9, Y3, Y3
	VGF2P8AFFINEQB  $0, Y10, Y4, Y4
	VGF2P8AFFINEQB  $0, Y10, Y5, Y5
	VGF2P8AFFINEQB  $0, Y11, Y6, Y6
	VGF2P8AFFINEQB  $0, Y11, Y7, Y7
	VPXOR           Y2, Y0, Y0
	VPXOR           Y3, Y1, Y1
	VPXOR           Y6, Y4, Y4
	VPXOR           Y7, Y5, Y5
	VPXOR           Y4, Y0, Y0
	VPXOR           Y5, Y1, Y1
	VPXOR           (DI)(DX*1), Y0, Y0
	VPXOR           32(DI)(DX*1), Y1, Y1
	VMOVDQU         Y0, (DI)(DX*1)
	VMOVDQU         Y1, 32(DI)(DX*1)
	ADDQ            $64, DX
	CMPQ            DX, CX
	JB              gfni4loop
	VZEROUPPER
	RET

// func mulGFNIAsm(v *byte, n int, mat uint64)
//
// In-place v[i] = c*v[i] via VGF2P8AFFINEQB.
TEXT ·mulGFNIAsm(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ mat+16(FP), AX

	MOVQ         AX, X7
	VPBROADCASTQ X7, Y7

	PCALIGN $32
gfniscale:
	VMOVDQU         (DI), Y0
	VGF2P8AFFINEQB  $0, Y7, Y0, Y0
	VMOVDQU         Y0, (DI)
	ADDQ            $32, DI
	SUBQ            $32, CX
	JNZ             gfniscale
	VZEROUPPER
	RET
