package algebraic

import "unsafe"

// StagedBuffers reports the staged list's backing array (nil before the
// first stage), its length and capacity, and the packet freelist's
// capacity: what staged_test.go, an external test because it builds TAG
// on this package, holds to the bound sizeStaged sets.
func (p *Protocol) StagedBuffers() (array unsafe.Pointer, staged, stagedCap, freeCap int) {
	return unsafe.Pointer(unsafe.SliceData(p.staged)), len(p.staged), cap(p.staged), cap(p.free)
}
