//go:build !amd64

package cpufeat

// Non-amd64 builds keep every X86 feature false: the dispatcher then
// settles on the scalar tier, whose kernels are plain Go.
