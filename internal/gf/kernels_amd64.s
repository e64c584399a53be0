// amd64 kernels for the avx2/gfni tiers. Callers guarantee:
//   - byte kernels: n > 0 and n%32 == 0
//   - plane kernels: cols > 0 and cols%4 == 0, cols <= words
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

// func addMulPlanes8Asm(dst, src *uint64, words, cols int, sel uint64)
//
// Bit-sliced GF(2^8) multiply-add over 4 word-columns (32 bytes of each
// of the 8 planes) per iteration: build the two four-Russians subset-XOR
// tables of the source planes on the stack as 32-byte vectors, then each
// destination plane is two table loads and two XORs, selected by its
// byte of sel (= MulRowsPacked(c)). Mirrors addMul8 in sliced.go with
// the word loop replaced by 256-bit columns.
//
// Frame: ta = 16 entries * 32 bytes at tbl-1024(SP),
//        tb = 16 entries * 32 bytes at tbl-512(SP).
TEXT ·addMulPlanes8Asm(SB), $1024-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ words+16(FP), DX
	SHLQ $3, DX             // plane stride in bytes
	MOVQ cols+24(FP), CX
	MOVQ sel+32(FP), BX
	LEAQ (DX)(DX*2), R8     // 3*stride
	LEAQ (DX)(DX*4), R9     // 5*stride
	LEAQ (R8)(DX*4), R10    // 7*stride
	LEAQ tbl-1024(SP), R12  // ta base
	LEAQ 512(R12), R13      // tb base

planes8:
	// Source planes 0..7 for this 4-column group.
	VMOVDQU (SI), Y0
	VMOVDQU (SI)(DX*1), Y1
	VMOVDQU (SI)(DX*2), Y2
	VMOVDQU (SI)(R8*1), Y3
	VMOVDQU (SI)(DX*4), Y4
	VMOVDQU (SI)(R9*1), Y5
	VMOVDQU (SI)(R8*2), Y6
	VMOVDQU (SI)(R10*1), Y7

	// ta: all 16 subset XORs of planes 0..3.
	VPXOR   Y8, Y8, Y8
	VMOVDQU Y8, (R12)
	VMOVDQU Y0, 32(R12)
	VMOVDQU Y1, 64(R12)
	VPXOR   Y0, Y1, Y9
	VMOVDQU Y9, 96(R12)
	VMOVDQU Y2, 128(R12)
	VPXOR   Y0, Y2, Y10
	VMOVDQU Y10, 160(R12)
	VPXOR   Y1, Y2, Y11
	VMOVDQU Y11, 192(R12)
	VPXOR   Y9, Y2, Y12
	VMOVDQU Y12, 224(R12)
	VMOVDQU Y3, 256(R12)
	VPXOR   Y0, Y3, Y13
	VMOVDQU Y13, 288(R12)
	VPXOR   Y1, Y3, Y14
	VMOVDQU Y14, 320(R12)
	VPXOR   Y9, Y3, Y15
	VMOVDQU Y15, 352(R12)
	VPXOR   Y2, Y3, Y13
	VMOVDQU Y13, 384(R12)
	VPXOR   Y10, Y3, Y14
	VMOVDQU Y14, 416(R12)
	VPXOR   Y11, Y3, Y15
	VMOVDQU Y15, 448(R12)
	VPXOR   Y12, Y3, Y13
	VMOVDQU Y13, 480(R12)

	// tb: all 16 subset XORs of planes 4..7.
	VMOVDQU Y8, (R13)
	VMOVDQU Y4, 32(R13)
	VMOVDQU Y5, 64(R13)
	VPXOR   Y4, Y5, Y9
	VMOVDQU Y9, 96(R13)
	VMOVDQU Y6, 128(R13)
	VPXOR   Y4, Y6, Y10
	VMOVDQU Y10, 160(R13)
	VPXOR   Y5, Y6, Y11
	VMOVDQU Y11, 192(R13)
	VPXOR   Y9, Y6, Y12
	VMOVDQU Y12, 224(R13)
	VMOVDQU Y7, 256(R13)
	VPXOR   Y4, Y7, Y13
	VMOVDQU Y13, 288(R13)
	VPXOR   Y5, Y7, Y14
	VMOVDQU Y14, 320(R13)
	VPXOR   Y9, Y7, Y15
	VMOVDQU Y15, 352(R13)
	VPXOR   Y6, Y7, Y13
	VMOVDQU Y13, 384(R13)
	VPXOR   Y10, Y7, Y14
	VMOVDQU Y14, 416(R13)
	VPXOR   Y11, Y7, Y15
	VMOVDQU Y15, 448(R13)
	VPXOR   Y12, Y7, Y13
	VMOVDQU Y13, 480(R13)

	// Destination plane i ^= ta[sel.byte(i)&15] ^ tb[sel.byte(i)>>4].
	// plane 0
	MOVQ    BX, AX
	ANDQ    $15, AX
	SHLQ    $5, AX
	MOVQ    BX, R11
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

	// plane 1
	MOVQ    BX, AX
	SHRQ    $8, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(DX*1), Y0, Y0
	VMOVDQU Y0, (DI)(DX*1)

	// plane 2
	MOVQ    BX, AX
	SHRQ    $16, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(DX*2), Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)

	// plane 3
	MOVQ    BX, AX
	SHRQ    $24, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(R8*1), Y0, Y0
	VMOVDQU Y0, (DI)(R8*1)

	// plane 4
	MOVQ    BX, AX
	SHRQ    $32, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(DX*4), Y0, Y0
	VMOVDQU Y0, (DI)(DX*4)

	// plane 5
	MOVQ    BX, AX
	SHRQ    $40, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(R9*1), Y0, Y0
	VMOVDQU Y0, (DI)(R9*1)

	// plane 6
	MOVQ    BX, AX
	SHRQ    $48, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(R8*2), Y0, Y0
	VMOVDQU Y0, (DI)(R8*2)

	// plane 7
	MOVQ    BX, AX
	SHRQ    $56, AX
	MOVQ    AX, R11
	ANDQ    $15, AX
	SHLQ    $5, AX
	SHRQ    $4, R11
	ANDQ    $15, R11
	SHLQ    $5, R11
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (R13)(R11*1), Y0, Y0
	VPXOR   (DI)(R10*1), Y0, Y0
	VMOVDQU Y0, (DI)(R10*1)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  planes8
	VZEROUPPER
	RET

// func addMulPlanes4Asm(dst, src *uint64, words, cols int, sel uint64)
//
// GF(16) variant: 4 planes, one 16-entry subset table, selector nibbles
// come from the low 4 bytes of sel (one byte per plane, value < 16).
TEXT ·addMulPlanes4Asm(SB), $512-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ words+16(FP), DX
	SHLQ $3, DX
	MOVQ cols+24(FP), CX
	MOVQ sel+32(FP), BX
	LEAQ (DX)(DX*2), R8    // 3*stride
	LEAQ tbl-512(SP), R12

planes4:
	VMOVDQU (SI), Y0
	VMOVDQU (SI)(DX*1), Y1
	VMOVDQU (SI)(DX*2), Y2
	VMOVDQU (SI)(R8*1), Y3

	VPXOR   Y8, Y8, Y8
	VMOVDQU Y8, (R12)
	VMOVDQU Y0, 32(R12)
	VMOVDQU Y1, 64(R12)
	VPXOR   Y0, Y1, Y9
	VMOVDQU Y9, 96(R12)
	VMOVDQU Y2, 128(R12)
	VPXOR   Y0, Y2, Y10
	VMOVDQU Y10, 160(R12)
	VPXOR   Y1, Y2, Y11
	VMOVDQU Y11, 192(R12)
	VPXOR   Y9, Y2, Y12
	VMOVDQU Y12, 224(R12)
	VMOVDQU Y3, 256(R12)
	VPXOR   Y0, Y3, Y13
	VMOVDQU Y13, 288(R12)
	VPXOR   Y1, Y3, Y14
	VMOVDQU Y14, 320(R12)
	VPXOR   Y9, Y3, Y15
	VMOVDQU Y15, 352(R12)
	VPXOR   Y2, Y3, Y13
	VMOVDQU Y13, 384(R12)
	VPXOR   Y10, Y3, Y14
	VMOVDQU Y14, 416(R12)
	VPXOR   Y11, Y3, Y15
	VMOVDQU Y15, 448(R12)
	VPXOR   Y12, Y3, Y13
	VMOVDQU Y13, 480(R12)

	// plane 0
	MOVQ    BX, AX
	ANDQ    $15, AX
	SHLQ    $5, AX
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

	// plane 1
	MOVQ    BX, AX
	SHRQ    $8, AX
	ANDQ    $15, AX
	SHLQ    $5, AX
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (DI)(DX*1), Y0, Y0
	VMOVDQU Y0, (DI)(DX*1)

	// plane 2
	MOVQ    BX, AX
	SHRQ    $16, AX
	ANDQ    $15, AX
	SHLQ    $5, AX
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (DI)(DX*2), Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)

	// plane 3
	MOVQ    BX, AX
	SHRQ    $24, AX
	ANDQ    $15, AX
	SHLQ    $5, AX
	VMOVDQU (R12)(AX*1), Y0
	VPXOR   (DI)(R8*1), Y0, Y0
	VMOVDQU Y0, (DI)(R8*1)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  planes4
	VZEROUPPER
	RET
