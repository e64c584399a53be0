package gf

// Kernel tier dispatch: the byte-row kernels (lookup multiply-add,
// in-place scale, the fused four-row pass) exist in up to four
// implementations, selected once at package init from the CPU features
// cpufeat detects:
//
//	scalar   the original pure-Go reference loops, kept verbatim (all
//	         GOARCH) — what a host without a vector tier runs, and the
//	         fuzz and equivalence oracle the other tiers are checked
//	         against.
//	avx2     amd64 assembly: 32-byte PSHUFB split-nibble lookup.
//	gfni     avx2 plus VGF2P8AFFINEQB — one instruction computes c*x for
//	         32 bytes via the 8x8 GF(2) matrix of "multiply by c".
//	gfni512  gfni plus AVX-512 (F/DQ/BW/VL, with the OS saving opmask
//	         and ZMM state): the fused four-row pass runs on 64-byte ZMM
//	         registers, 128 bytes an iteration, and linalg's emits draw
//	         their coefficients eight at a time (core.PCG's draw blocks);
//	         every other kernel is gfni's.
//
// On gfni and gfni512 a coefficient row — a multiple of 32 bytes, at
// most 256 — is also reduced against a whole echelon form (ReduceRows)
// or combined from a set of rows (AddMulSlices) in one asm call, on YMM
// registers: a combination holds the row in registers from its one load
// to its one store. Other widths and tiers run the Go loops those calls
// replace, which stay as their oracle.
//
// The bit-sliced plane kernels (sliced.go) are one pure-Go
// implementation on every tier: rlnc only builds a sliced decoder below
// avx2, where nothing else could run them.
//
// The environment variable ALGOSSIP_GF_TIER ∈ {auto, gfni512, gfni,
// avx2, scalar} overrides auto-selection; a request above what the host
// supports clamps down to the best supported tier, so forcing "gfni512"
// in a heterogeneous fleet degrades gracefully instead of faulting. All
// tiers are bit-identical (pinned by TestTierEquivalence and the fuzz
// targets), so tier selection never moves a fixed-seed trajectory — it
// only moves throughput.

import (
	"fmt"
	"os"

	"algossip/internal/gf/cpufeat"
)

// Tier identifies one kernel implementation level, ordered from the
// reference oracle upwards.
type Tier uint8

const (
	// TierScalar is the pure-Go reference code (every GOARCH) — the
	// equivalence oracle.
	TierScalar Tier = iota
	// TierAVX2 is the amd64 PSHUFB assembly tier.
	TierAVX2
	// TierGFNI is TierAVX2 with VGF2P8AFFINEQB byte-row kernels.
	TierGFNI
	// TierGFNI512 is TierGFNI with the fused four-row pass on ZMM.
	TierGFNI512
)

// String returns the tier's ALGOSSIP_GF_TIER token.
func (t Tier) String() string {
	switch t {
	case TierScalar:
		return "scalar"
	case TierAVX2:
		return "avx2"
	case TierGFNI:
		return "gfni"
	case TierGFNI512:
		return "gfni512"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// activeTier is the package-wide dispatch level. It is written at init
// (and by SetTier in tests/tools) and read on every kernel call; it is
// deliberately a plain variable — mutation must not race kernel use.
var activeTier = bestTier()

func init() {
	if v, ok := os.LookupEnv("ALGOSSIP_GF_TIER"); ok {
		t, err := ParseTier(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gf: %v; using %q\n", err, activeTier)
			return
		}
		if t > bestTier() {
			// Requested above hardware support: clamp, loudly, so forced-
			// tier perf runs on the wrong machine cannot mislabel numbers.
			fmt.Fprintf(os.Stderr, "gf: ALGOSSIP_GF_TIER=%q unsupported on this CPU (%s); using %q\n",
				v, cpufeat.Summary(), bestTier())
			t = bestTier()
		}
		activeTier = t
	}
}

// bestTier returns the highest tier the host supports.
func bestTier() Tier { return tierOf(cpufeat.X86) }

// tierOf returns the highest tier a host with features x supports.
func tierOf(x cpufeat.Features) Tier {
	switch {
	case x.HasGFNI && x.HasAVX2 && x.HasAVX512:
		return TierGFNI512
	case x.HasGFNI && x.HasAVX2:
		return TierGFNI
	case x.HasAVX2:
		return TierAVX2
	default:
		return TierScalar
	}
}

// ParseTier maps an ALGOSSIP_GF_TIER token to a Tier; "auto" means the
// best the host supports.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "auto", "":
		return bestTier(), nil
	case "scalar":
		return TierScalar, nil
	case "avx2":
		return TierAVX2, nil
	case "gfni":
		return TierGFNI, nil
	case "gfni512":
		return TierGFNI512, nil
	}
	return TierScalar, fmt.Errorf("gf: unknown ALGOSSIP_GF_TIER %q (want auto|gfni512|gfni|avx2|scalar)", s)
}

// ActiveTier returns the tier the kernels currently dispatch to.
func ActiveTier() Tier { return activeTier }

// AvailableTiers lists every tier the host supports, lowest first —
// the set the forced-tier equivalence tests and fuzz targets sweep.
func AvailableTiers() []Tier {
	var out []Tier
	for t := TierScalar; t <= bestTier(); t++ {
		out = append(out, t)
	}
	return out
}

// SetTier forces the dispatch level, returning an error when the host
// cannot run it. It is intended for tests, benchmarks and tools; callers
// must serialize it against concurrent kernel use and restore the
// previous tier afterwards.
func SetTier(t Tier) error {
	if t > bestTier() {
		return fmt.Errorf("gf: tier %q unsupported on this CPU (%s)", t, cpufeat.Summary())
	}
	activeTier = t
	return nil
}

// TierInfo returns the active tier plus the detected CPU features, e.g.
// "gfni512 (avx2 avx512 gfni ssse3)" — the attribution string surfaced
// in timing footers, /status, /metrics and perf-trajectory records.
func TierInfo() string {
	return fmt.Sprintf("%s (%s)", activeTier, cpufeat.Summary())
}
