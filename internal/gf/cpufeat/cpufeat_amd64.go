package cpufeat

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7, ecx7 uint32
	if ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is available
		xcr0, _ = xgetbv()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpuid(7, 0)
	}
	X86 = Decode(ecx1, ebx7, ecx7, xcr0)
}
