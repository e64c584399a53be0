//go:build !amd64

package core

// Stub bodies for the amd64 draw-block kernels. They are unreachable:
// callers draw in blocks only on the gf package's gfni512 tier, which
// needs AVX-512 that cpufeat never reports off amd64.

func xorCoinRowsAsm(hi, lo uint64, rows *uint64, n, words int, out *uint64) {
	panic("core: no draw-block kernel on this GOARCH")
}

func drawBytesAsm(hi, lo uint64, dst *byte, n int, mask uint64) {
	panic("core: no draw-block kernel on this GOARCH")
}
