package cpufeat

import (
	"runtime"
	"strings"
	"testing"
)

// TestSummaryConsistent pins Summary against the feature booleans: every
// detected feature appears exactly once, and "none" appears only when
// nothing was detected.
func TestSummaryConsistent(t *testing.T) {
	s := Summary()
	t.Logf("cpufeat: %s (GOARCH=%s)", s, runtime.GOARCH)
	checks := []struct {
		name string
		on   bool
	}{
		{"avx2", X86.HasAVX2},
		{"avx512", X86.HasAVX512},
		{"gfni", X86.HasGFNI},
		{"ssse3", X86.HasSSSE3},
	}
	any := false
	for _, c := range checks {
		has := strings.Contains(s, c.name)
		if has != c.on {
			t.Errorf("Summary()=%q lists %s=%v, feature bit is %v", s, c.name, has, c.on)
		}
		any = any || c.on
	}
	if (s == "none") == any {
		t.Errorf("Summary()=%q inconsistent with any-feature=%v", s, any)
	}
	if runtime.GOARCH != "amd64" && any {
		t.Errorf("non-amd64 build reports x86 features: %q", s)
	}
}

// TestDecodeRequiresOSState pins the XCR0 rule: CPUID bits alone never
// report a vector feature; the OS must also save every register state
// the feature's kernels touch. AVX-512 reported by CPUID on a kernel
// that saves YMM but not the opmask/ZMM state is AVX2 only.
func TestDecodeRequiresOSState(t *testing.T) {
	const (
		ecx1 = 1<<9 | 1<<27 | 1<<28                 // SSSE3, OSXSAVE, AVX
		ebx7 = 1<<5 | 1<<16 | 1<<17 | 1<<30 | 1<<31 // AVX2, AVX-512 F/DQ/BW/VL
		ecx7 = 1 << 8                               // GFNI
		full = 0x7 | 1<<5 | 1<<6 | 1<<7             // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		avx2, avx512     bool
	}{
		{"all", ecx1, ebx7, full, true, true},
		{"no ZMM state", ecx1, ebx7, 0x7, true, false},
		{"no opmask state", ecx1, ebx7, full &^ (1 << 5), true, false},
		{"no ZMM_Hi256 state", ecx1, ebx7, full &^ (1 << 6), true, false},
		{"no Hi16_ZMM state", ecx1, ebx7, full &^ (1 << 7), true, false},
		{"no YMM state", ecx1, ebx7, full &^ (1 << 2), false, false},
		{"no OSXSAVE", ecx1 &^ (1 << 27), ebx7, full, false, false},
		{"no AVX", ecx1 &^ (1 << 28), ebx7, full, false, false},
		{"no DQ", ecx1, ebx7 &^ (1 << 17), full, true, false},
		{"no BW", ecx1, ebx7 &^ (1 << 30), full, true, false},
		{"no VL", ecx1, ebx7 &^ (1 << 31), full, true, false},
		{"F only", ecx1, 1<<5 | 1<<16, full, true, false},
		{"no AVX2", ecx1, ebx7 &^ (1 << 5), full, false, true},
	} {
		got := Decode(tc.ecx1, tc.ebx7, ecx7, tc.xcr0)
		if got.HasAVX2 != tc.avx2 || got.HasAVX512 != tc.avx512 {
			t.Errorf("%s: avx2=%v avx512=%v, want %v %v", tc.name, got.HasAVX2, got.HasAVX512, tc.avx2, tc.avx512)
		}
		if !got.HasGFNI || !got.HasSSSE3 {
			t.Errorf("%s: GFNI/SSSE3 lost: %+v", tc.name, got)
		}
	}
	if got := Decode(0, 0, 0, 0); got != (Features{}) {
		t.Errorf("Decode of zero registers = %+v, want nothing", got)
	}
}
