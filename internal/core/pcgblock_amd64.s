// Draw-block kernels for core.PCG (pcgblock.go), AVX-512 F/BW/DQ.
//
// An iteration makes eight draws, lane i the (8b+i+1)-th of the call. Its
// state is formed from the call's start state (H, L) and pcgSkip's row
// 8b+i+1 alone, (H, L)·(mulHi, mulLo) + (addHi, addLo) mod 2^128, so no
// lane waits on another and no iteration on the last:
//
//	lo = L·mulLo + addLo                        (VPMULLQ, carry by compare)
//	hi = mulhi(L, mulLo) + H·mulLo + L·mulHi + addHi + carry
//
// with the high half of L·mulLo from four 32×32 VPMULUDQ products (AVX-512
// has no 64-bit high multiply). DXSM follows as in PCG.Uint64 up to its
// last multiply, hi·(lo|1): a coin is bit 0 of that product, which is
// bit 0 of hi, so the coin kernel stops before it; the byte kernel needs
// the product's low byte only, which VPMULLW's low word holds.
//
// The row count n is in CX and counts down by eight; the last, partial
// block runs with K7 holding its live lanes, so a tail never loads a row
// or stores a byte past n (masked-off lanes of an EVEX memory operand are
// not accessed). Table reads stay inside pcgSkip for n <= 256.

#include "go_asm.h"
#include "textflag.h"

// SETUP broadcasts the per-call constants: Z16 = L, Z17 = L>>32, Z18 = H,
// Z19 = 1, Z20 = 2^32-1, Z21 = DXSM's multiplier; BX = &pcgSkip row 1, SI
// = the byte offset of the block's first row in each column, K7 = all
// lanes live.
#define SETUP \
	MOVQ         hi+0(FP), AX; \
	MOVQ         lo+8(FP), DX; \
	VPBROADCASTQ DX, Z16; \
	SHRQ         $32, DX; \
	VPBROADCASTQ DX, Z17; \
	VPBROADCASTQ AX, Z18; \
	MOVL         $1, AX; \
	VPBROADCASTQ AX, Z19; \
	MOVL         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z20; \
	MOVQ         $const_pcgCheapMul, AX; \
	VPBROADCASTQ AX, Z21; \
	LEAQ         ·pcgSkip+8(SB), BX; \
	XORQ         SI, SI; \
	MOVL         $0xff, AX; \
	KMOVW        AX, K7

// DRAW8 makes the block's eight draws: Z0 = hi after DXSM's second
// xorshift (bit 0 is the coin), Z1 = the lo state words. It clobbers
// Z2–Z7 and K1.
#define DRAW8 \
	VMOVDQU64 pcgTable_mulLo(BX)(SI*1), Z2; \
	VPMULLQ   Z2, Z16, Z1; \
	VPSRLQ    $32, Z2, Z3; \
	VPMULUDQ  Z2, Z16, Z4; \
	VPMULUDQ  Z3, Z16, Z5; \
	VPMULUDQ  Z2, Z17, Z6; \
	VPMULUDQ  Z3, Z17, Z7; \
	VPSRLQ    $32, Z4, Z4; \
	VPADDQ    Z4, Z6, Z6; \
	VPSRLQ    $32, Z6, Z4; \
	VPANDQ    Z20, Z6, Z6; \
	VPADDQ    Z5, Z6, Z6; \
	VPSRLQ    $32, Z6, Z6; \
	VPADDQ    Z4, Z7, Z7; \
	VPADDQ    Z6, Z7, Z7; \
	VPMULLQ   Z2, Z18, Z2; \
	VPMULLQ   pcgTable_mulHi(BX)(SI*1), Z16, Z3; \
	VPADDQ    Z2, Z7, Z7; \
	VPADDQ    Z3, Z7, Z7; \
	VPADDQ    pcgTable_addHi(BX)(SI*1), Z7, Z7; \
	VPADDQ    pcgTable_addLo(BX)(SI*1), Z1, Z1; \
	VPCMPUQ   $1, pcgTable_addLo(BX)(SI*1), Z1, K1; \
	VPADDQ    Z19, Z7, K1, Z7; \
	VPSRLQ    $32, Z7, Z2; \
	VPXORQ    Z2, Z7, Z7; \
	VPMULLQ   Z21, Z7, Z7; \
	VPSRLQ    $48, Z7, Z2; \
	VPXORQ    Z2, Z7, Z0

// func xorCoinRowsAsm(hi, lo uint64, rows *uint64, n, words int, out *uint64)
//
// The sum of the picked rows builds in Z8, lane l holding word l%words of
// the rows that pass through it, and is folded down to words lanes at the
// end. Two- and four-word rows span two and four ZMM loads a block: the
// coins are spread to their words' lanes by VPERMQ (indices in Z22–Z25).
TEXT ·xorCoinRowsAsm(SB), NOSPLIT, $0-48
	SETUP
	MOVQ   rows+16(FP), DI
	MOVQ   n+24(FP), CX
	MOVQ   words+32(FP), DX
	VPXORQ Z8, Z8, Z8
	CMPQ   DX, $2
	JEQ    coins2
	JGT    coins4

	PCALIGN $32
coins1:
	CMPQ  CX, $8
	JAE   coins1live
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K7

coins1live:
	DRAW8
	VPTESTMQ Z19, Z0, K7, K2
	VPXORQ   (DI), Z8, K2, Z8
	ADDQ     $64, SI
	ADDQ     $64, DI
	SUBQ     $8, CX
	JGT      coins1

	VEXTRACTI64X4 $1, Z8, Y9
	VPXOR         Y9, Y8, Y8
	VEXTRACTI128  $1, Y8, X9
	VPXOR         X9, X8, X8
	VPSHUFD       $0x4e, X8, X9
	VPXOR         X9, X8, X8
	MOVQ          out+40(FP), DX
	VMOVQ         X8, (DX)
	VZEROUPPER
	RET

coins2:
	MOVQ      $0x0303020201010000, AX
	VMOVQ     AX, X22
	VPMOVZXBQ X22, Z22
	MOVQ      $0x0707060605050404, AX
	VMOVQ     AX, X23
	VPMOVZXBQ X23, Z23

	PCALIGN $32
coins2loop:
	CMPQ  CX, $8
	JAE   coins2live
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K7

coins2live:
	DRAW8
	VPANDQ.Z Z19, Z0, K7, Z0
	VPERMQ   Z0, Z22, Z9
	VPTESTMQ Z9, Z9, K2
	VPERMQ   Z0, Z23, Z9
	VPTESTMQ Z9, Z9, K3
	VPXORQ   (DI), Z8, K2, Z8
	VPXORQ   64(DI), Z8, K3, Z8
	ADDQ     $64, SI
	ADDQ     $128, DI
	SUBQ     $8, CX
	JGT      coins2loop

	VEXTRACTI64X4 $1, Z8, Y9
	VPXOR         Y9, Y8, Y8
	VEXTRACTI128  $1, Y8, X9
	VPXOR         X9, X8, X8
	MOVQ          out+40(FP), DX
	VMOVDQU       X8, (DX)
	VZEROUPPER
	RET

coins4:
	MOVQ      $0x0101010100000000, AX
	VMOVQ     AX, X22
	VPMOVZXBQ X22, Z22
	MOVQ      $0x0303030302020202, AX
	VMOVQ     AX, X23
	VPMOVZXBQ X23, Z23
	MOVQ      $0x0505050504040404, AX
	VMOVQ     AX, X24
	VPMOVZXBQ X24, Z24
	MOVQ      $0x0707070706060606, AX
	VMOVQ     AX, X25
	VPMOVZXBQ X25, Z25

	PCALIGN $32
coins4loop:
	CMPQ  CX, $8
	JAE   coins4live
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K7

coins4live:
	DRAW8
	VPANDQ.Z Z19, Z0, K7, Z0
	VPERMQ   Z0, Z22, Z9
	VPTESTMQ Z9, Z9, K2
	VPERMQ   Z0, Z23, Z9
	VPTESTMQ Z9, Z9, K3
	VPERMQ   Z0, Z24, Z9
	VPTESTMQ Z9, Z9, K4
	VPERMQ   Z0, Z25, Z9
	VPTESTMQ Z9, Z9, K5
	VPXORQ   (DI), Z8, K2, Z8
	VPXORQ   64(DI), Z8, K3, Z8
	VPXORQ   128(DI), Z8, K4, Z8
	VPXORQ   192(DI), Z8, K5, Z8
	ADDQ     $64, SI
	ADDQ     $256, DI
	SUBQ     $8, CX
	JGT      coins4loop

	VEXTRACTI64X4 $1, Z8, Y9
	VPXOR         Y9, Y8, Y8
	MOVQ          out+40(FP), DX
	VMOVDQU       Y8, (DX)
	VZEROUPPER
	RET

// func drawBytesAsm(hi, lo uint64, dst *byte, n int, mask uint64)
TEXT ·drawBytesAsm(SB), NOSPLIT, $0-40
	SETUP
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	VPBROADCASTQ mask+32(FP), Z22

	PCALIGN $32
bytesloop:
	CMPQ  CX, $8
	JAE   byteslive
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K7

byteslive:
	DRAW8
	VPORQ   Z19, Z1, Z1
	VPMULLW Z1, Z0, Z0
	VPANDQ  Z22, Z0, Z0
	VPMOVQB Z0, K7, (DI)
	ADDQ    $64, SI
	ADDQ    $8, DI
	SUBQ    $8, CX
	JGT     bytesloop

	VZEROUPPER
	RET
