package core

import (
	"math/bits"
	"math/rand/v2"
	"unsafe"
)

// PCG is the generator behind every stream NewRand hands out: PCG-DXSM
// with 128 bits of state, draw for draw math/rand/v2's rand.PCG (the same
// multiplier, increment and output permutation), owned here for two
// things the standard one cannot give. Uint64 is small enough to inline
// into a coefficient loop that holds the concrete *PCG, where a
// *rand.Rand pays an interface call per draw; and because the state
// transition is an LCG, Skip advances any number of draws in O(1).
//
// Fixed-seed trajectories, golden CSVs and conformance digests are
// functions of this exact stream, so the constants below are not tunable.
type PCG struct {
	hi, lo uint64
}

// The LCG step state = state*mul + inc (mod 2^128) and DXSM's multiplier,
// as in math/rand/v2/pcg.go.
const (
	pcgMulHi    = 2549297995355413924
	pcgMulLo    = 4865540595714422341
	pcgIncHi    = 6364136223846793005
	pcgIncLo    = 1442695040888963407
	pcgCheapMul = 0xda942042e4dd58b5
)

// Uint64 returns the next value of the stream. The LCG step is written
// out, not shared with pcgJump.apply: through a call it costs 85 against
// the compiler's inlining budget of 80, and the emit loops need it inline.
func (p *PCG) Uint64() uint64 {
	hi, lo := bits.Mul64(p.lo, pcgMulLo)
	hi += p.hi*pcgMulLo + p.lo*pcgMulHi
	lo, c := bits.Add64(lo, pcgIncLo, 0)
	hi, _ = bits.Add64(hi, pcgIncHi, c)
	p.lo, p.hi = lo, hi

	hi ^= hi >> 32
	hi *= pcgCheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// pcgJump is n LCG steps folded into one: state*mul + add (mod 2^128).
type pcgJump struct {
	mulHi, mulLo, addHi, addLo uint64
}

// apply advances the state (hi, lo) by the jump.
func (j *pcgJump) apply(hi, lo uint64) (uint64, uint64) {
	h, l := bits.Mul64(lo, j.mulLo)
	h += hi*j.mulLo + lo*j.mulHi
	l, c := bits.Add64(l, j.addLo, 0)
	h, _ = bits.Add64(h, j.addHi, c)
	return h, l
}

// pcgSkipMax is the largest jump held in the table. A skip is a sender's
// rank, at most k, and every pinned workload has k <= 256; a longer skip
// takes the last entry repeatedly.
const pcgSkipMax = 256

// pcgSkip[n] is the jump of n draws: entry 0 the identity, entry n+1 one
// more step applied to entry n.
var pcgSkip = func() (t [pcgSkipMax + 1]pcgJump) {
	mul := pcgJump{pcgMulHi, pcgMulLo, 0, 0}
	step := pcgJump{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}
	t[0].mulLo = 1
	for n := range pcgSkipMax {
		t[n+1].mulHi, t[n+1].mulLo = mul.apply(t[n].mulHi, t[n].mulLo)
		t[n+1].addHi, t[n+1].addLo = step.apply(t[n].addHi, t[n].addLo)
	}
	return t
}()

// Skip advances the stream by n draws, leaving it exactly where n calls
// of Uint64 would.
func (p *PCG) Skip(n int) {
	for ; n > pcgSkipMax; n -= pcgSkipMax {
		p.hi, p.lo = pcgSkip[pcgSkipMax].apply(p.hi, p.lo)
	}
	p.hi, p.lo = pcgSkip[n].apply(p.hi, p.lo)
}

// Generator returns the *PCG that r draws from. Every stream in the
// module is a core.NewRand one, and the coefficient loops call Generator
// once per call to draw through the inlined Uint64 and to Skip; a
// *rand.Rand on any other source is a caller-side bug, and Generator
// panics on it rather than draw a stream no pin records.
//
// rand.Rand is struct{ src Source } and exports no accessor; this is the
// one unsafe read in the package, and TestRandLayout fails on a toolchain
// that lays rand.Rand out differently.
func Generator(r *rand.Rand) *PCG {
	p, ok := (*(*rand.Source)(unsafe.Pointer(r))).(*PCG)
	if !ok {
		panic("core: coefficient draws need a *rand.Rand built by core.NewRand")
	}
	return p
}
