// Package cpufeat probes the CPU features the GF kernel tiers dispatch
// on. It is dependency-free by design (no golang.org/x/sys): the probe is
// a raw CPUID/XGETBV pair on amd64 and a constant-false stub everywhere
// else, so the gf package can pick a kernel tier at init without pulling
// anything into the module graph.
//
// Feature semantics follow the usual deployment rules: a vector feature
// is reported only when the instruction set bit AND the OS-enabled state
// (XCR0 via XGETBV) are both present, so dispatching on these booleans
// can never fault on a machine whose kernel disabled YMM or ZMM state
// saves. Decode is that rule, a pure function of the probed registers.
package cpufeat

// Features holds the amd64 feature bits relevant to the GF kernels.
type Features struct {
	// HasAVX2 reports AVX2 with OS-enabled YMM state: the 32-byte-wide
	// PSHUFB split-nibble and plane-XOR kernels require it.
	HasAVX2 bool
	// HasAVX512 reports AVX-512 F, DQ, BW and VL with OS-enabled opmask
	// and ZMM state: the 64-byte-wide kernels of the gfni512 tier require
	// it, and core's draw blocks multiply 64-bit lanes (VPMULLQ, DQ).
	HasAVX512 bool
	// HasGFNI reports the Galois Field New Instructions bit. The VEX-
	// encoded VGF2P8AFFINEQB kernels additionally need AVX2 (checked by
	// the dispatcher), matching how mixed fleets actually ship GFNI.
	HasGFNI bool
	// HasSSSE3 reports SSSE3 (PSHUFB); recorded for the feature summary.
	HasSSSE3 bool
}

// X86 holds the detected features. All fields are false on other
// architectures. Populated once at init; read-only afterwards.
var X86 Features

// XCR0 state-component bits: SSE and AVX (XMM/YMM upper halves), then
// the three AVX-512 components (opmask, ZMM0–15 upper halves, ZMM16–31).
const (
	xcr0YMM = 1<<1 | 1<<2
	xcr0ZMM = 1<<5 | 1<<6 | 1<<7
)

// Decode maps raw CPUID words to Features: ecx1 is leaf 1's ECX, ebx7
// and ecx7 are leaf 7 subleaf 0's EBX and ECX (zero when the CPU has no
// leaf 7), and xcr0 is XCR0's low word (zero when OSXSAVE is off, since
// XGETBV then faults). A vector feature needs its CPUID bits and the OS
// saving every register state it touches: AVX2 needs YMM state, AVX-512
// needs YMM and all three AVX-512 components, whatever CPUID claims.
func Decode(ecx1, ebx7, ecx7, xcr0 uint32) Features {
	avx := ecx1&(1<<28) != 0
	ymmOS := ecx1&(1<<27) != 0 && xcr0&xcr0YMM == xcr0YMM
	zmmOS := ymmOS && xcr0&xcr0ZMM == xcr0ZMM
	const f, dq, bw, vl = 1 << 16, 1 << 17, 1 << 30, 1 << 31
	return Features{
		HasSSSE3:  ecx1&(1<<9) != 0,
		HasAVX2:   avx && ymmOS && ebx7&(1<<5) != 0,
		HasAVX512: avx && zmmOS && ebx7&(f|dq|bw|vl) == f|dq|bw|vl,
		HasGFNI:   ecx7&(1<<8) != 0,
	}
}

// Summary returns a compact space-separated list of the detected
// features (e.g. "avx2 avx512 gfni ssse3"), or "none" — the string
// recorded in perf-trajectory entries so numbers stay attributable
// across heterogeneous machines.
func Summary() string {
	s := ""
	if X86.HasAVX2 {
		s += " avx2"
	}
	if X86.HasAVX512 {
		s += " avx512"
	}
	if X86.HasGFNI {
		s += " gfni"
	}
	if X86.HasSSSE3 {
		s += " ssse3"
	}
	if s == "" {
		return "none"
	}
	return s[1:]
}
