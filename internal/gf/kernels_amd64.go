package gf

// amd64 assembly kernel entry points (kernels_amd64.s). All of them
// process whole 32-byte blocks of a byte row (64-byte ones in the
// four-row kernel); the Go dispatch sites run the scalar reference over
// any remainder, so short and unaligned rows are always correct, and
// check every length before a kernel sees a pointer. dst and src may be the exact same slice
// (read-before-write per block) but must not partially overlap — the
// same contract the scalar loops already rely on.

//go:noescape
func addMulNibAsm(dst, src *byte, n int, tab *byte)

//go:noescape
func mulNibAsm(v *byte, n int, tab *byte)

//go:noescape
func addMulGFNIAsm(dst, src *byte, n int, mat uint64)

//go:noescape
func mulGFNIAsm(v *byte, n int, mat uint64)

// addMulGFNI4Asm is the four-row fused multiply-add: whole 64-byte
// blocks, dst either exactly one of the rows or overlapping none.
//
//go:noescape
func addMulGFNI4Asm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64)
