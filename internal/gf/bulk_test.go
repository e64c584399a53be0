package gf

import (
	"bytes"
	"slices"
	"testing"

	"math/rand/v2"
)

// allOrders is every field order the package supports: GF(2), the binary
// extension fields, and a sample of primes (including the extremes).
var allOrders = []int{2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 7, 101, 251}

// addMulRef is the scalar reference: dst[i] += c*src[i] one symbol at a
// time through the Field's Mul/Add — the path the bulk kernels replace.
func addMulRef(f Field, dst, src []byte, c Elem) {
	for i := range src {
		dst[i] = byte(f.Add(Elem(dst[i]), f.Mul(c, Elem(src[i]))))
	}
}

// mulRef is the scalar reference for MulSlice.
func mulRef(f Field, v []byte, c Elem) {
	for i := range v {
		v[i] = byte(f.Mul(c, Elem(v[i])))
	}
}

// randRow fills a fresh row with valid elements of f.
func randRow(f Field, n int, rng *rand.Rand) []byte {
	return RandBytes(f, n, rng)
}

// TestAddMulSliceMatchesScalar cross-checks the bulk kernel against the
// scalar reference for every supported field, every coefficient of small
// fields (sampled coefficients for large ones), and lengths straddling the
// word-wise fast-path boundaries.
func TestAddMulSliceMatchesScalar(t *testing.T) {
	lengths := []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 255, 256, 1000}
	for _, q := range allOrders {
		f := MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(q), 7))
			coeffs := make([]Elem, 0, q)
			if q <= 16 {
				for c := 0; c < q; c++ {
					coeffs = append(coeffs, Elem(c))
				}
			} else {
				coeffs = append(coeffs, 0, 1, Elem(q-1))
				for i := 0; i < 8; i++ {
					coeffs = append(coeffs, Rand(f, rng))
				}
			}
			for _, n := range lengths {
				for _, c := range coeffs {
					src := randRow(f, n, rng)
					dst := randRow(f, n+3, rng) // dst longer than src is allowed
					want := append([]byte(nil), dst...)
					f.AddMulSlice(dst, src, c)
					addMulRef(f, want, src, c)
					if !bytes.Equal(dst, want) {
						t.Fatalf("AddMulSlice(len=%d, c=%d) diverges from scalar reference", n, c)
					}
				}
			}
		})
	}
}

// TestMulSliceMatchesScalar cross-checks the in-place scale kernel.
func TestMulSliceMatchesScalar(t *testing.T) {
	for _, q := range allOrders {
		f := MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(q), 11))
			for _, n := range []int{0, 1, 7, 8, 17, 256} {
				for _, c := range []Elem{0, 1, Elem(q - 1), Rand(f, rng)} {
					v := randRow(f, n, rng)
					want := append([]byte(nil), v...)
					f.MulSlice(v, c)
					mulRef(f, want, c)
					if !bytes.Equal(v, want) {
						t.Fatalf("MulSlice(len=%d, c=%d) diverges from scalar reference", n, c)
					}
				}
			}
		})
	}
}

// TestAXPYMatchesAddMulSlice checks the []Elem entry points agree with the
// byte kernels they forward to (and hence with the scalar reference).
func TestAXPYMatchesAddMulSlice(t *testing.T) {
	for _, q := range allOrders {
		f := MustNew(q)
		rng := rand.New(rand.NewPCG(uint64(q), 13))
		for trial := 0; trial < 20; trial++ {
			n := rng.IntN(100)
			c := Rand(f, rng)
			src := RandVector(f, n, rng)
			dst := RandVector(f, n, rng)
			wantB := make([]byte, n)
			srcB := make([]byte, n)
			for i := range dst {
				wantB[i] = byte(dst[i])
				srcB[i] = byte(src[i])
			}
			f.AXPY(dst, src, c)
			f.AddMulSlice(wantB, srcB, c)
			for i := range dst {
				if byte(dst[i]) != wantB[i] {
					t.Fatalf("%s: AXPY diverges from AddMulSlice at %d (c=%d)", f.Name(), i, c)
				}
			}

			v := RandVector(f, n, rng)
			vB := make([]byte, n)
			for i := range v {
				vB[i] = byte(v[i])
			}
			f.Scale(v, c)
			f.MulSlice(vB, c)
			for i := range v {
				if byte(v[i]) != vB[i] {
					t.Fatalf("%s: Scale diverges from MulSlice at %d (c=%d)", f.Name(), i, c)
				}
			}
		}
	}
}

// TestAddMulSliceLinearity checks the algebra the decoder relies on:
// combining with c then eliminating with -c restores the original row.
func TestAddMulSliceLinearity(t *testing.T) {
	for _, q := range allOrders {
		f := MustNew(q)
		rng := rand.New(rand.NewPCG(uint64(q), 17))
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.IntN(300)
			c := Rand(f, rng)
			src := randRow(f, n, rng)
			dst := randRow(f, n, rng)
			orig := append([]byte(nil), dst...)
			f.AddMulSlice(dst, src, c)
			f.AddMulSlice(dst, src, f.Neg(c))
			if !bytes.Equal(dst, orig) {
				t.Fatalf("%s: dst + c*src - c*src != dst (c=%d, n=%d)", f.Name(), c, n)
			}
		}
	}
}

// TestXorWordsMatchesWordLoop pins XorWords against the word loop it
// replaces, over lengths around the vector widths subtle.XORBytes
// switches on, with a longer dst whose tail must stay untouched, and
// with dst == src.
func TestXorWordsMatchesWordLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(64, 19))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 129} {
		src := make([]uint64, n)
		dst := make([]uint64, n+2)
		for i := range src {
			src[i] = rng.Uint64()
		}
		for i := range dst {
			dst[i] = rng.Uint64()
		}
		want := slices.Clone(dst)
		for i, s := range src {
			want[i] ^= s
		}
		XorWords(dst, src)
		if !slices.Equal(dst, want) {
			t.Fatalf("XorWords diverges from the word loop at %d words", n)
		}
		XorWords(src, src)
		if slices.ContainsFunc(src, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("XorWords(v, v) left a nonzero word at %d words", n)
		}
	}
}
