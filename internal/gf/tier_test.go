package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"algossip/internal/gf/cpufeat"
)

// withTier runs fn under a forced dispatch tier and restores the
// previous tier afterwards.
func withTier(t *testing.T, tier Tier, fn func()) {
	t.Helper()
	old := ActiveTier()
	if err := SetTier(tier); err != nil {
		t.Fatalf("SetTier(%v): %v", tier, err)
	}
	defer func() {
		if err := SetTier(old); err != nil {
			t.Fatalf("restore tier %v: %v", old, err)
		}
	}()
	fn()
}

// scalarAddMulSlice computes the oracle result under TierScalar into a
// fresh copy of dst.
func scalarAddMulSlice(t *testing.T, f *GF2m, dst, src []byte, c Elem) []byte {
	t.Helper()
	want := slices.Clone(dst)
	withTier(t, TierScalar, func() { f.AddMulSlice(want, src, c) })
	return want
}

// TestTierParseAndClamp pins the ALGOSSIP_GF_TIER token set and the
// supported-tier ordering.
func TestTierParseAndClamp(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"scalar", TierScalar, true},
		{"portable", TierScalar, false},
		{"avx2", TierAVX2, true},
		{"gfni", TierGFNI, true},
		{"gfni512", TierGFNI512, true},
		{"auto", bestTier(), true},
		{"", bestTier(), true},
		{"sse9", TierScalar, false},
	} {
		got, err := ParseTier(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseTier(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	avail := AvailableTiers()
	want := []Tier{TierScalar, TierAVX2, TierGFNI, TierGFNI512}[:1+int(bestTier())]
	if !slices.Equal(avail, want) {
		t.Fatalf("AvailableTiers() = %v; want %v", avail, want)
	}
	host := ActiveTier()
	defer func() { _ = SetTier(host) }()
	for _, tier := range avail {
		if err := SetTier(tier); err != nil {
			t.Errorf("available tier %v refused: %v", tier, err)
		}
	}
	if err := SetTier(bestTier() + 1); err == nil {
		t.Errorf("tier above bestTier()=%v accepted", bestTier())
	}
}

// tierEdgeLens covers zero, sub-block, exact-block, and every
// off-by-one around the 32-byte asm block width, plus odd sizes that
// leave both a vector part and a scalar tail.
var tierEdgeLens = []int{0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 47, 63, 64, 65, 95, 96, 97, 100, 255, 256, 257, 1000, 1024}

// TestTierEquivalenceBytes checks AddMulSlice, MulSlice and AddMulSlices
// of every available tier against the scalar oracle for every extension
// field, every edge-case length, every scalar, including dst == src
// aliasing and the dst-tail-untouched contract.
func TestTierEquivalenceBytes(t *testing.T) {
	for _, order := range []int{4, 16, 32, 256} {
		f := mustGF2m(t, order)
		rng := rand.New(rand.NewSource(int64(order)))
		for _, tier := range AvailableTiers() {
			if tier == TierScalar {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", f.Name(), tier), func(t *testing.T) {
				for _, n := range tierEdgeLens {
					src := make([]byte, n)
					for i := range src {
						src[i] = byte(rng.Intn(order))
					}
					base := make([]byte, n+5) // 5 tail bytes must stay untouched
					for i := range base {
						base[i] = byte(rng.Intn(order))
					}
					for _, c := range []Elem{0, 1, 2, Elem(order - 1), Elem(rng.Intn(order))} {
						want := scalarAddMulSlice(t, f, base, src, c)
						got := slices.Clone(base)
						withTier(t, tier, func() { f.AddMulSlice(got, src, c) })
						if !bytes.Equal(got, want) {
							t.Fatalf("AddMulSlice len=%d c=%d: tier %v diverges from scalar", n, c, tier)
						}
						// In-place scale.
						wantV := slices.Clone(src)
						withTier(t, TierScalar, func() { f.MulSlice(wantV, c) })
						gotV := slices.Clone(src)
						withTier(t, tier, func() { f.MulSlice(gotV, c) })
						if !bytes.Equal(gotV, wantV) {
							t.Fatalf("MulSlice len=%d c=%d: tier %v diverges from scalar", n, c, tier)
						}
						// Exact dst == src aliasing: dst[i] ^= c*dst[i] must
						// match computing it from a snapshot.
						wantA := scalarAddMulSlice(t, f, src, slices.Clone(src), c)
						gotA := slices.Clone(src)
						withTier(t, tier, func() { f.AddMulSlice(gotA, gotA, c) })
						if !bytes.Equal(gotA, wantA) {
							t.Fatalf("AddMulSlice aliased len=%d c=%d: tier %v diverges", n, c, tier)
						}
					}
					// The fused multi-row kernel, five rows (one full group
					// of four and a padded one) against the scalar loop.
					srcs, cs := randRows(rng, order, 5, n)
					cs[1], cs[3] = 0, 1
					want := loopAddMulSlices(t, f, base, srcs, cs)
					got := slices.Clone(base)
					withTier(t, tier, func() { f.AddMulSlices(got[:n], srcs, cs) })
					if !bytes.Equal(got, want) {
						t.Fatalf("AddMulSlices len=%d: tier %v diverges from the scalar loop", n, tier)
					}
				}
			})
		}
	}
}

// TestTierEquivalenceSliced checks AddMulSliced under every available
// tier against the scalar tier across plane word counts, for every m
// with a sliced fast path and a couple of generic-m widths. The plane
// kernels are one pure-Go implementation; this pins that they stay
// tier-independent.
func TestTierEquivalenceSliced(t *testing.T) {
	for _, order := range []int{4, 8, 16, 64, 256} {
		f := mustGF2m(t, order)
		m := f.M()
		rng := rand.New(rand.NewSource(int64(order)))
		for _, tier := range AvailableTiers() {
			if tier == TierScalar {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", f.Name(), tier), func(t *testing.T) {
				for _, words := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 31} {
					n := m * words
					src := make([]uint64, n)
					base := make([]uint64, n+3) // tail words must stay untouched
					for i := range src {
						src[i] = rng.Uint64()
					}
					for i := range base {
						base[i] = rng.Uint64()
					}
					for _, c := range []Elem{0, 1, 2, Elem(order - 1), Elem(rng.Intn(order))} {
						want := slices.Clone(base)
						withTier(t, TierScalar, func() { f.AddMulSliced(want, src, words, c) })
						got := slices.Clone(base)
						withTier(t, tier, func() { f.AddMulSliced(got, src, words, c) })
						if !slices.Equal(got, want) {
							t.Fatalf("AddMulSliced words=%d c=%d: tier %v diverges from scalar", words, c, tier)
						}
						// Exact aliasing dst == src. Only the m ∈ {4, 8}
						// four-Russians kernels read each column before
						// writing it; the generic-m plane walk never
						// supported aliasing, in scalar or any other tier.
						if m == 4 || m == 8 {
							wantA := slices.Clone(src)
							withTier(t, TierScalar, func() { f.AddMulSliced(wantA, slices.Clone(src), words, c) })
							gotA := slices.Clone(src)
							withTier(t, tier, func() { f.AddMulSliced(gotA, gotA, words, c) })
							if !slices.Equal(gotA, wantA) {
								t.Fatalf("AddMulSliced aliased words=%d c=%d: tier %v diverges", words, c, tier)
							}
						}
					}
				}
				// words == 0 must be a no-op on every tier.
				withTier(t, tier, func() { f.AddMulSliced(nil, nil, 0, 3) })
			})
		}
	}
}

// TestTierEquivalenceElem routes the []Elem AXPY/Scale entry points
// (which forward to the byte kernels) through every tier once, so the
// coefficient side of elimination is covered too.
func TestTierEquivalenceElem(t *testing.T) {
	f := mustGF2m(t, 256)
	rng := rand.New(rand.NewSource(99))
	n := 129
	src := make([]Elem, n)
	base := make([]Elem, n)
	for i := range src {
		src[i] = Elem(rng.Intn(256))
		base[i] = Elem(rng.Intn(256))
	}
	c := Elem(0x53)
	want := slices.Clone(base)
	withTier(t, TierScalar, func() { f.AXPY(want, src, c) })
	for _, tier := range AvailableTiers() {
		got := slices.Clone(base)
		withTier(t, tier, func() { f.AXPY(got, src, c) })
		if !slices.Equal(got, want) {
			t.Fatalf("AXPY: tier %v diverges from scalar", tier)
		}
	}
}

// randRows returns rows source rows of n symbols below order, with one
// coefficient each.
func randRows(rng *rand.Rand, order, rows, n int) ([][]byte, []Elem) {
	srcs := make([][]byte, rows)
	cs := make([]Elem, rows)
	for j := range srcs {
		srcs[j] = make([]byte, n)
		for i := range srcs[j] {
			srcs[j][i] = byte(rng.Intn(order))
		}
		cs[j] = Elem(rng.Intn(order))
	}
	return srcs, cs
}

// loopAddMulSlices is AddMulSlices' oracle: the scalar-tier AddMulSlice
// loop over the rows, in order, into a fresh copy of dst. A row that is
// dst itself (same backing array) is taken from the copy, so aliasing
// follows the copy as it follows dst in the real call.
func loopAddMulSlices(t *testing.T, f *GF2m, dst []byte, srcs [][]byte, cs []Elem) []byte {
	t.Helper()
	want := slices.Clone(dst)
	withTier(t, TierScalar, func() {
		for j, src := range srcs {
			if len(src) > 0 && len(dst) > 0 && &src[0] == &dst[0] {
				src = want[:len(src)]
			}
			f.AddMulSlice(want, src, cs[j])
		}
	})
	return want
}

// TestAddMulSlicesMatchesLoop pins the fused multi-row kernel to the
// AddMulSlice loop it replaces, on every tier: lengths on both sides of
// the 64-byte block and of the 32-byte single-row block, row counts on
// both sides of the four-row group, coefficients 0 and 1 among the
// random ones, the dst tail untouched, and dst aliasing srcs[0].
func TestAddMulSlicesMatchesLoop(t *testing.T) {
	for _, order := range []int{4, 16, 256} {
		f := mustGF2m(t, order)
		rng := rand.New(rand.NewSource(int64(order)))
		for _, tier := range AvailableTiers() {
			t.Run(fmt.Sprintf("%s/%v", f.Name(), tier), func(t *testing.T) {
				for _, n := range []int{1, 31, 63, 64, 65, 100, 4096, 4100} {
					for _, rows := range []int{0, 1, 3, 4, 5, 8, 11, 128} {
						srcs, cs := randRows(rng, order, rows, n)
						if rows >= 3 {
							cs[rng.Intn(rows)] = 0
							cs[rng.Intn(rows)] = 1
						}
						base := make([]byte, n+5) // 5 tail bytes must stay untouched
						for i := range base {
							base[i] = byte(rng.Intn(order))
						}
						want := loopAddMulSlices(t, f, base, srcs, cs)
						got := slices.Clone(base)
						withTier(t, tier, func() { f.AddMulSlices(got[:n], srcs, cs) })
						if !bytes.Equal(got, want) {
							t.Fatalf("len=%d rows=%d: diverges from the AddMulSlice loop", n, rows)
						}
						if rows == 0 {
							continue
						}
						// dst is srcs[0]: dst ^= cs[0]*dst ^ Σ the rest.
						alias := slices.Clone(srcs[0])
						srcs[0] = alias
						wantA := loopAddMulSlices(t, f, alias, srcs, cs)
						withTier(t, tier, func() { f.AddMulSlices(alias, srcs, cs) })
						if !bytes.Equal(alias, wantA) {
							t.Fatalf("len=%d rows=%d: aliased dst diverges from the AddMulSlice loop", n, rows)
						}
					}
				}
			})
		}
	}
}

// TestAddMulSliceShortDstPanics: a dst (or, for AddMulSlices, a source
// row) shorter than the length the kernel is asked to cover must panic on
// every tier — the asm tiers used to write past the end of a short dst
// where the scalar loop panicked. The short row is a reslice with the
// capacity to be extended, and nothing may be written before the panic.
func TestAddMulSliceShortDstPanics(t *testing.T) {
	f := mustGF2m(t, 256)
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	for _, tier := range AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			for _, n := range []int{1, 40, 64, 200} {
				src := bytes.Repeat([]byte{7}, n)
				for _, c := range []Elem{1, 0x53} {
					backing := make([]byte, n+64)
					withTier(t, tier, func() {
						if !panics(func() { f.AddMulSlice(backing[:n-1], src, c) }) {
							t.Errorf("AddMulSlice(len(dst)=%d, len(src)=%d, c=%d) did not panic", n-1, n, c)
						}
						short := [][]byte{src, src[:n-1], src, src, src}
						if !panics(func() { f.AddMulSlices(backing[:n], short, []Elem{c, c, c, c, c}) }) {
							t.Errorf("AddMulSlices(len(dst)=%d) with a row of %d did not panic", n, n-1)
						}
					})
					if !bytes.Equal(backing, make([]byte, n+64)) {
						t.Fatalf("n=%d c=%d: bytes were written before the panic", n, c)
					}
				}
			}
			withTier(t, tier, func() {
				if !panics(func() { f.AddMulSlices(make([]byte, 64), [][]byte{make([]byte, 64)}, nil) }) {
					t.Error("AddMulSlices with fewer coefficients than rows did not panic")
				}
			})
		})
	}
}

func mustGF2m(t *testing.T, order int) *GF2m {
	t.Helper()
	m := 0
	for 1<<m < order {
		m++
	}
	f, err := NewGF2m(m)
	if err != nil {
		t.Fatalf("NewGF2m(%d): %v", m, err)
	}
	return f
}

// TestTierOfNeedsOSState: gfni512 is chosen only when cpufeat reports
// AVX-512 usable — which Decode refuses without OS-saved opmask and ZMM
// state, or without each of F, DQ, BW and VL — and every tier needs its
// own features.
func TestTierOfNeedsOSState(t *testing.T) {
	const (
		ecx1 = 1<<9 | 1<<27 | 1<<28
		ebx7 = 1<<5 | 1<<16 | 1<<17 | 1<<30 | 1<<31
		gfni = 1 << 8
	)
	for _, tc := range []struct {
		name             string
		ebx7, ecx7, xcr0 uint32
		want             Tier
	}{
		{"avx512+gfni, ZMM state saved", ebx7, gfni, 0xE7, TierGFNI512},
		{"avx512+gfni, no ZMM state", ebx7, gfni, 0x07, TierGFNI},
		{"avx512+gfni, no opmask state", ebx7, gfni, 0xC7, TierGFNI},
		{"avx512+gfni, no F", ebx7 &^ (1 << 16), gfni, 0xE7, TierGFNI},
		{"avx512+gfni, no DQ", ebx7 &^ (1 << 17), gfni, 0xE7, TierGFNI},
		{"avx512+gfni, no BW", ebx7 &^ (1 << 30), gfni, 0xE7, TierGFNI},
		{"avx512+gfni, no VL", ebx7 &^ (1 << 31), gfni, 0xE7, TierGFNI},
		{"avx512, no gfni", ebx7, 0, 0xE7, TierAVX2},
		{"no YMM state", ebx7, gfni, 0x03, TierScalar},
	} {
		if got := tierOf(cpufeat.Decode(ecx1, tc.ebx7, tc.ecx7, tc.xcr0)); got != tc.want {
			t.Errorf("%s: tier %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := tierOf(cpufeat.Features{HasAVX2: true, HasGFNI: true}); got != TierGFNI {
		t.Errorf("avx2+gfni without avx512: tier %v, want gfni", got)
	}
}

// rowKernelWidths are the coefficient-row widths the register-resident
// kernels take (every multiple of 32 up to 256) and, around them, widths
// that must fall back to the Go loops.
var rowKernelWidths = []int{1, 31, 32, 33, 64, 96, 100, 128, 160, 192, 224, 255, 256, 257, 288, 512}

// echelon returns rank rows of width n in echelon form over f: strictly
// increasing pivots, every row zero before its pivot and non-zero at it,
// random after it. The pivots include, where the width allows, columns
// with p%32 == 0 and p%32 == 31 (the first and last byte of a kernel
// block); pivFac is a random non-zero factor per row.
func echelon(rng *rand.Rand, f *GF2m, n, rank int) (rows [][]byte, pivots []int, pivFac []Elem) {
	order := int(f.mask) + 1
	var cand []int
	for p := 0; p < n; p++ {
		if p%32 == 0 || p%32 == 31 || rng.Intn(n) < 2*rank {
			cand = append(cand, p)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	pivots = slices.Clone(cand[:min(rank, len(cand))])
	slices.Sort(pivots)
	for _, p := range pivots {
		row := make([]byte, n)
		row[p] = byte(1 + rng.Intn(order-1))
		for j := p + 1; j < n; j++ {
			row[j] = byte(rng.Intn(order))
		}
		rows = append(rows, row)
		pivFac = append(pivFac, Elem(1+rng.Intn(order-1)))
	}
	return rows, pivots, pivFac
}

// TestRowKernelsMatchLoops pins the register-resident row kernels to the
// Go loops they replace, on every tier: ReduceRows against the
// AddMulSlice loop (facs nil and non-nil, coefficients at a pivot zero
// or not, pivots at both ends of a 32-byte block) and AddMulSlices on
// coefficient-row widths against the scalar AddMulSlice loop (zero and
// one coefficients, nil rows behind a zero, dst aliasing its first row),
// each with the bytes past the row untouched.
func TestRowKernelsMatchLoops(t *testing.T) {
	for _, order := range []int{4, 16, 256} {
		f := mustGF2m(t, order)
		rng := rand.New(rand.NewSource(int64(order) + 7))
		for _, tier := range AvailableTiers() {
			t.Run(fmt.Sprintf("%s/%v", f.Name(), tier), func(t *testing.T) {
				for _, n := range rowKernelWidths {
					for _, rank := range []int{0, 1, 2, 5, n / 2, n - 1, n} {
						if rank > n {
							continue
						}
						rows, pivots, pivFac := echelon(rng, f, n, rank)
						v := make([]byte, n+5) // 5 tail bytes must stay untouched
						for i := range v {
							v[i] = byte(rng.Intn(order))
						}
						for i, p := range pivots {
							if i%3 == 1 {
								v[p] = 0 // a skipped row
							}
						}
						for _, withFacs := range []bool{false, true} {
							var wantF, gotF []Elem
							if withFacs {
								wantF = make([]Elem, len(pivots)+2)
								gotF = make([]Elem, len(pivots)+2)
								for i := range gotF {
									wantF[i], gotF[i] = 0x5A, 0x5A
								}
							}
							wantV, gotV := slices.Clone(v), slices.Clone(v)
							withTier(t, TierScalar, func() { f.ReduceRows(wantV[:n], rows, pivots, pivFac, wantF) })
							withTier(t, tier, func() { f.ReduceRows(gotV[:n], rows, pivots, pivFac, gotF) })
							if !bytes.Equal(gotV, wantV) || !slices.Equal(gotF, wantF) {
								t.Fatalf("ReduceRows n=%d rank=%d facs=%v: tier %v diverges from the loop", n, rank, withFacs, tier)
							}
						}
						// The same rows combined, as an emit would.
						cs := make([]Elem, len(rows))
						for j := range cs {
							cs[j] = Elem(rng.Intn(order))
						}
						if len(cs) >= 3 {
							cs[0], cs[1], cs[2] = 0, 1, 0
							rows[2] = nil
						}
						want := loopAddMulSlices(t, f, v, rows, cs)
						got := slices.Clone(v)
						withTier(t, tier, func() { f.AddMulSlices(got[:n], rows, cs) })
						if !bytes.Equal(got, want) {
							t.Fatalf("AddMulSlices n=%d rows=%d: tier %v diverges from the loop", n, len(rows), tier)
						}
						if len(rows) > 0 && rows[0] != nil {
							alias := slices.Clone(rows[0])
							rows[0] = alias
							wantA := loopAddMulSlices(t, f, alias, rows, cs)
							withTier(t, tier, func() { f.AddMulSlices(alias, rows, cs) })
							if !bytes.Equal(alias, wantA) {
								t.Fatalf("AddMulSlices n=%d: aliased dst diverges from the loop", n)
							}
						}
					}
				}
			})
		}
	}
}

// TestReduceRowsPanics: a pivot outside v, a row shorter than v, or too
// few pivot factors or factor slots panic on every tier before any byte
// of v is written.
func TestReduceRowsPanics(t *testing.T) {
	f := mustGF2m(t, 256)
	rng := rand.New(rand.NewSource(3))
	for _, tier := range AvailableTiers() {
		for _, n := range []int{64, 100, 128} {
			rows, pivots, pivFac := echelon(rng, f, n, 8)
			v := bytes.Repeat([]byte{9}, n)
			for name, call := range map[string]func(){
				"pivot outside": func() {
					f.ReduceRows(v, rows, append(slices.Clone(pivots[:7]), n), pivFac, nil)
				},
				"short row": func() {
					short := slices.Clone(rows)
					short[5] = short[5][:n-1]
					f.ReduceRows(v, short, pivots, pivFac, nil)
				},
				"few factors": func() { f.ReduceRows(v, rows, pivots, pivFac[:7], nil) },
				"few slots":   func() { f.ReduceRows(v, rows, pivots, pivFac, make([]Elem, 7)) },
			} {
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					withTier(t, tier, call)
					return false
				}()
				if !panicked {
					t.Errorf("%v n=%d: %s did not panic", tier, n, name)
				}
				if !bytes.Equal(v, bytes.Repeat([]byte{9}, n)) {
					t.Fatalf("%v n=%d: %s wrote v before panicking", tier, n, name)
				}
			}
		}
	}
}
