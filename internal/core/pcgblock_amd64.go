package core

// Draw-block kernels (pcgblock_amd64.s), AVX-512 F/DQ/BW. Both read the
// jumps of draws 1..n of pcgSkip, so n <= pcgSkipMax, and n > 0.

// xorCoinRowsAsm is XorCoinRows' kernel from state (hi, lo): n rows of
// words ∈ {1, 2, 4} words at rows, the sum written to out[:words].
//
//go:noescape
func xorCoinRowsAsm(hi, lo uint64, rows *uint64, n, words int, out *uint64)

// drawBytesAsm is DrawBytes' kernel from state (hi, lo): n draws, each
// ANDed with mask, to dst[:n].
//
//go:noescape
func drawBytesAsm(hi, lo uint64, dst *byte, n int, mask uint64)
