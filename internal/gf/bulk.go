package gf

// Bulk coding kernels: the byte-slice combine primitives behind every hot
// RLNC path. A coded packet's payload is a row of byte-encoded field
// elements; combining packets is dst += c*src over whole rows. Doing that
// one Elem at a time through interface calls dominates encode/decode cost,
// so every Field implementation also provides AddMulSlice/MulSlice over
// []byte rows:
//
//   - GF(2^m): one 256-entry lookup row per coefficient (the
//     klauspost/reedsolomon technique), so the inner loop is a table walk
//     and XOR with no bounds checks.
//   - c == 1 in characteristic 2: word-wise XOR via subtle.XORBytes, which
//     the standard library implements with SIMD where available.
//   - Prime fields: a scalar modular loop — the generic fallback.
//
// The []Elem AXPY/Scale entry points forward to the same kernels through a
// zero-copy reinterpretation (Elem is a uint8), so the coefficient part of
// Gaussian elimination gets the fast paths too.

import (
	"crypto/subtle"
	"unsafe"
)

// AsBytes reinterprets a []Elem as []byte without copying. Elem's underlying
// type is uint8, so the layouts are identical — which is also what lets a
// wire adapter hand a coefficient vector to the byte-row codecs as is.
func AsBytes(v []Elem) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}

// AsByteRows reinterprets a [][]Elem as [][]byte without copying, so rows
// of symbols go to the multi-row byte kernels (AddMulSlices) as they are.
// A slice header's layout does not depend on its element type, and the
// elements are AsBytes-compatible, so every row views the same bytes.
func AsByteRows(v [][]Elem) [][]byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*[]byte)(unsafe.Pointer(&v[0])), len(v))
}

// u64Bytes reinterprets a []uint64 as its underlying bytes without
// copying (little-endian layout is irrelevant: callers only XOR).
func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// XorWords performs dst[i] ^= src[i] over packed words via
// subtle.XORBytes, which the standard library vectorizes where it can.
// len(dst) must be at least len(src). Exported so the packed GF(2)
// backends in linalg share it for whole-row XORs.
func XorWords(dst, src []uint64) {
	xorSlice(u64Bytes(dst), u64Bytes(src))
}

// xorSlice performs dst[i] ^= src[i] for every index of src, word-wise.
// len(dst) must be at least len(src).
func xorSlice(dst, src []byte) {
	subtle.XORBytes(dst[:len(src)], dst[:len(src)], src)
}

// mulTableSlice applies dst[i] ^= row[src[i]] with the 256-entry lookup row
// of one coefficient. The array-pointer row lets the compiler drop every
// bounds check (a byte index cannot exceed 255).
func mulTableSlice(dst, src []byte, row *[256]byte) {
	n := len(src)
	_ = dst[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= row[src[i]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// scaleTableSlice applies v[i] = row[v[i]] in place.
func scaleTableSlice(v []byte, row *[256]byte) {
	for i, s := range v {
		v[i] = row[s]
	}
}
