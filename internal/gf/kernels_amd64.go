package gf

// amd64 assembly kernel entry points (kernels_amd64.s). All of them
// process whole 32-byte blocks of a byte row (64-byte ones in the
// four-row kernels); the Go dispatch sites run the scalar reference over
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

// addMulGFNI4ZAsm is addMulGFNI4Asm on ZMM registers (gfni512): whole
// 64-byte blocks, 128 bytes an iteration, the same aliasing contract.
//
//go:noescape
func addMulGFNI4ZAsm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64)

// addMulRowsGFNIAsm is AddMulSlices over one coefficient row held in
// registers: n%32 == 0, 0 < n <= 256, rows > 0. It reports false, dst
// untouched, when a row with a non-zero coefficient is shorter than n.
//
//go:noescape
func addMulRowsGFNIAsm(dst *byte, n int, srcs *[]byte, cs *Elem, rows int, mats *uint64, mask uint64) bool

// reduceRowsGFNIAsm is ReduceRows' loop in one call: n%32 == 0,
// 0 < n <= 256, cnt > 0, every pivot below n and every row at least n
// long (checked by the caller); facs may be nil.
//
//go:noescape
func reduceRowsGFNIAsm(v *byte, n int, rows *[]byte, pivots *int, pivFac *Elem, facs *Elem, cnt int, mul *byte, mats *uint64, mask uint64)
