//go:build !amd64

package gf

// Stub bodies for the amd64 assembly kernels. They are unreachable: the
// dispatcher can only select a tier above TierScalar when cpufeat
// detected the features, which never happens off amd64.

func addMulNibAsm(dst, src *byte, n int, tab *byte)   { panic("gf: no asm kernel on this GOARCH") }
func mulNibAsm(v *byte, n int, tab *byte)             { panic("gf: no asm kernel on this GOARCH") }
func addMulGFNIAsm(dst, src *byte, n int, mat uint64) { panic("gf: no asm kernel on this GOARCH") }
func mulGFNIAsm(v *byte, n int, mat uint64)           { panic("gf: no asm kernel on this GOARCH") }
func addMulGFNI4Asm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64) {
	panic("gf: no asm kernel on this GOARCH")
}
func addMulGFNI4ZAsm(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64) {
	panic("gf: no asm kernel on this GOARCH")
}
func addMulRowsGFNIAsm(dst *byte, n int, srcs *[]byte, cs *Elem, rows int, mats *uint64, mask uint64) bool {
	panic("gf: no asm kernel on this GOARCH")
}
func reduceRowsGFNIAsm(v *byte, n int, rows *[]byte, pivots *int, pivFac *Elem, facs *Elem, cnt int, mul *byte, mats *uint64, mask uint64) {
	panic("gf: no asm kernel on this GOARCH")
}
