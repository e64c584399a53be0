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

// func addMulGFNI4ZAsm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64)
//
// addMulGFNI4Asm on 64-byte ZMM registers (the gfni512 tier): 128 bytes
// an iteration as two chains, each folding its four products and the dst
// block with two three-way XORs (VPTERNLOGD $0x96), and a 64-byte
// remainder as one chain. n > 0, n%64 == 0; the same aliasing contract.
TEXT ·addMulGFNI4ZAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ srcs+16(FP), AX
	MOVQ mats+24(FP), BX

	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	VPBROADCASTQ 0(BX), Z8
	VPBROADCASTQ 8(BX), Z9
	VPBROADCASTQ 16(BX), Z10
	VPBROADCASTQ 24(BX), Z11
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-128, BX // bytes the two-chain loop covers
	JZ           gfni4ztail

	PCALIGN $32
gfni4zloop:
	VMOVDQU64      (R8)(DX*1), Z0
	VMOVDQU64      64(R8)(DX*1), Z1
	VMOVDQU64      (R9)(DX*1), Z2
	VMOVDQU64      64(R9)(DX*1), Z3
	VMOVDQU64      (R10)(DX*1), Z4
	VMOVDQU64      64(R10)(DX*1), Z5
	VMOVDQU64      (R11)(DX*1), Z6
	VMOVDQU64      64(R11)(DX*1), Z7
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z8, Z1, Z1
	VGF2P8AFFINEQB $0, Z9, Z2, Z2
	VGF2P8AFFINEQB $0, Z9, Z3, Z3
	VGF2P8AFFINEQB $0, Z10, Z4, Z4
	VGF2P8AFFINEQB $0, Z10, Z5, Z5
	VGF2P8AFFINEQB $0, Z11, Z6, Z6
	VGF2P8AFFINEQB $0, Z11, Z7, Z7
	VPTERNLOGD     $0x96, Z4, Z2, Z0
	VPTERNLOGD     $0x96, Z5, Z3, Z1
	VPTERNLOGD     $0x96, (DI)(DX*1), Z6, Z0
	VPTERNLOGD     $0x96, 64(DI)(DX*1), Z7, Z1
	VMOVDQU64      Z0, (DI)(DX*1)
	VMOVDQU64      Z1, 64(DI)(DX*1)
	ADDQ           $128, DX
	CMPQ           DX, BX
	JB             gfni4zloop
	CMPQ           DX, CX
	JAE            gfni4zdone

gfni4ztail:
	VMOVDQU64      (R8)(DX*1), Z0
	VMOVDQU64      (R9)(DX*1), Z2
	VMOVDQU64      (R10)(DX*1), Z4
	VMOVDQU64      (R11)(DX*1), Z6
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z9, Z2, Z2
	VGF2P8AFFINEQB $0, Z10, Z4, Z4
	VGF2P8AFFINEQB $0, Z11, Z6, Z6
	VPTERNLOGD     $0x96, Z4, Z2, Z0
	VPTERNLOGD     $0x96, (DI)(DX*1), Z6, Z0
	VMOVDQU64      Z0, (DI)(DX*1)

gfni4zdone:
	VZEROUPPER
	RET

// func addMulRowsGFNIAsm(dst *byte, n int, srcs *[]byte, cs *Elem, rows int, mats *uint64, mask uint64) bool
//
// dst ^= Σ cs[j]·srcs[j] over a coefficient row, n%32 == 0 and
// 0 < n <= 256, with dst held in Y0–Y7 from the first load to the one
// store: each row costs its loads, its products and its XORs, and dst
// no memory traffic at all. The block count is fixed for the call, so
// the compare ladder after each block is predicted perfectly. A row with
// a zero coefficient is skipped before its header is read (it may be
// nil); a coefficient is masked to the field before it indexes mats. A
// row shorter than n ends the call before dst is stored, reporting
// false — the caller panics, nothing written.
TEXT ·addMulRowsGFNIAsm(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ srcs+16(FP), SI
	MOVQ cs+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ mats+40(FP), R10
	MOVQ mask+48(FP), R12
	MOVQ CX, BX
	SHRQ $5, BX          // 32-byte blocks

	VMOVDQU (DI), Y0
	CMPQ    BX, $2
	JB      rowsloaded
	VMOVDQU 32(DI), Y1
	CMPQ    BX, $3
	JB      rowsloaded
	VMOVDQU 64(DI), Y2
	CMPQ    BX, $4
	JB      rowsloaded
	VMOVDQU 96(DI), Y3
	CMPQ    BX, $5
	JB      rowsloaded
	VMOVDQU 128(DI), Y4
	CMPQ    BX, $6
	JB      rowsloaded
	VMOVDQU 160(DI), Y5
	CMPQ    BX, $7
	JB      rowsloaded
	VMOVDQU 192(DI), Y6
	CMPQ    BX, $8
	JB      rowsloaded
	VMOVDQU 224(DI), Y7

rowsloaded:
	XORQ DX, DX
	TESTQ R9, R9
	JZ   rowsstore

	PCALIGN $32
rowsloop:
	MOVBQZX (R8)(DX*1), AX
	ANDQ    R12, AX
	JZ      rowsnext
	LEAQ    (DX)(DX*2), R11
	CMPQ    8(SI)(R11*8), CX
	JB      rowsshort
	MOVQ    (SI)(R11*8), R11
	VPBROADCASTQ (R10)(AX*8), Y15

	VMOVDQU        (R11), Y8
	VGF2P8AFFINEQB $0, Y15, Y8, Y8
	VPXOR          Y8, Y0, Y0
	CMPQ           BX, $2
	JB             rowsnext
	VMOVDQU        32(R11), Y9
	VGF2P8AFFINEQB $0, Y15, Y9, Y9
	VPXOR          Y9, Y1, Y1
	CMPQ           BX, $3
	JB             rowsnext
	VMOVDQU        64(R11), Y10
	VGF2P8AFFINEQB $0, Y15, Y10, Y10
	VPXOR          Y10, Y2, Y2
	CMPQ           BX, $4
	JB             rowsnext
	VMOVDQU        96(R11), Y11
	VGF2P8AFFINEQB $0, Y15, Y11, Y11
	VPXOR          Y11, Y3, Y3
	CMPQ           BX, $5
	JB             rowsnext
	VMOVDQU        128(R11), Y12
	VGF2P8AFFINEQB $0, Y15, Y12, Y12
	VPXOR          Y12, Y4, Y4
	CMPQ           BX, $6
	JB             rowsnext
	VMOVDQU        160(R11), Y13
	VGF2P8AFFINEQB $0, Y15, Y13, Y13
	VPXOR          Y13, Y5, Y5
	CMPQ           BX, $7
	JB             rowsnext
	VMOVDQU        192(R11), Y14
	VGF2P8AFFINEQB $0, Y15, Y14, Y14
	VPXOR          Y14, Y6, Y6
	CMPQ           BX, $8
	JB             rowsnext
	VMOVDQU        224(R11), Y8
	VGF2P8AFFINEQB $0, Y15, Y8, Y8
	VPXOR          Y8, Y7, Y7

rowsnext:
	INCQ DX
	CMPQ DX, R9
	JB   rowsloop

rowsstore:
	VMOVDQU Y0, (DI)
	CMPQ    BX, $2
	JB      rowsdone
	VMOVDQU Y1, 32(DI)
	CMPQ    BX, $3
	JB      rowsdone
	VMOVDQU Y2, 64(DI)
	CMPQ    BX, $4
	JB      rowsdone
	VMOVDQU Y3, 96(DI)
	CMPQ    BX, $5
	JB      rowsdone
	VMOVDQU Y4, 128(DI)
	CMPQ    BX, $6
	JB      rowsdone
	VMOVDQU Y5, 160(DI)
	CMPQ    BX, $7
	JB      rowsdone
	VMOVDQU Y6, 192(DI)
	CMPQ    BX, $8
	JB      rowsdone
	VMOVDQU Y7, 224(DI)

rowsdone:
	VZEROUPPER
	MOVB $1, ret+56(FP)
	RET

rowsshort:
	VZEROUPPER
	MOVB $0, ret+56(FP)
	RET

// func reduceRowsGFNIAsm(v *byte, n int, rows *[]byte, pivots *int, pivFac *Elem, facs *Elem, cnt int, mul *byte, mats *uint64, mask uint64)
//
// Eliminates v (n bytes, n%32 == 0, 0 < n <= 256) against cnt > 0
// echelon rows in order: c = v[pivots[i]] (it and pivFac[i] masked to
// the field before they index a table), skipped
// when zero, and otherwise v ^= c·(pivFac[i]·rows[i]) from the 32-byte
// block holding the pivot — row i is zero before its pivot, so the
// blocks before it add nothing — with facs[i] = c·pivFac[i] (0 when
// skipped; facs may be nil) looked up in mul, a padded 256-entry
// product row per c. Field multiplication is associative, so the two
// affine steps give the bytes the single factor would; they take the
// product-table load off the loop-carried chain (c from the row before
// → its matrix → v), as pivFac[i]·rows[i] does not depend on c. v stays
// in L1 between rows; the next pivot's byte is read back through store
// forwarding. The caller has checked every pivot < n and every row
// length >= n.
TEXT ·reduceRowsGFNIAsm(SB), NOSPLIT, $0-80
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), SI
	MOVQ pivots+24(FP), R8
	MOVQ pivFac+32(FP), R9
	MOVQ facs+40(FP), R10
	MOVQ mul+56(FP), R12
	MOVQ mats+64(FP), R13
	XORQ BX, BX

	PCALIGN $32
redloop:
	MOVQ         (R8)(BX*8), DX
	MOVBQZX      (R9)(BX*1), R11
	ANDQ         mask+72(FP), R11
	VPBROADCASTQ (R13)(R11*8), Y14
	MOVBQZX      (DI)(DX*1), AX
	ANDQ         mask+72(FP), AX
	JZ           redskip
	VPBROADCASTQ (R13)(AX*8), Y15
	TESTQ        R10, R10
	JZ           rednofac
	SHLQ         $8, AX
	ORQ          R11, AX
	MOVBQZX      (R12)(AX*1), AX
	MOVB         AX, (R10)(BX*1)

rednofac:
	LEAQ (BX)(BX*2), R11
	MOVQ (SI)(R11*8), R11
	ANDQ $-32, DX

redrow:
	VMOVDQU        (R11)(DX*1), Y0
	VGF2P8AFFINEQB $0, Y14, Y0, Y0
	VGF2P8AFFINEQB $0, Y15, Y0, Y0
	VPXOR          (DI)(DX*1), Y0, Y0
	VMOVDQU        Y0, (DI)(DX*1)
	ADDQ           $32, DX
	CMPQ           DX, CX
	JB             redrow

rednext:
	INCQ BX
	CMPQ BX, cnt+48(FP)
	JB   redloop
	VZEROUPPER
	RET

redskip:
	TESTQ R10, R10
	JZ    rednext
	MOVB  $0, (R10)(BX*1)
	JMP   rednext
