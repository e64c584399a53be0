package gf

import (
	"bytes"
	"slices"
	"testing"

	"math/rand/v2"
)

// extensionOrders is every binary extension field with a sliced backend.
var extensionOrders = []int{2, 4, 8, 16, 32, 64, 128, 256}

// slicedField constructs GF(2^m) for order q = 2^m directly (MustNew(2)
// would return the GF2 specialization, which has no sliced kernels).
func slicedField(t testing.TB, q int) *GF2m {
	t.Helper()
	m := 0
	for v := q; v > 1; v >>= 1 {
		m++
	}
	f, err := NewGF2m(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// packRow packs a byte row into a fresh sliced buffer.
func packRow(f *GF2m, src []byte) []uint64 {
	v := make([]uint64, f.M()*SlicedWords(len(src)))
	f.PackSliced(v, src)
	return v
}

// unpackRow unpacks a sliced buffer into a fresh n-byte row.
func unpackRow(f *GF2m, v []uint64, n int) []byte {
	out := make([]byte, n)
	f.UnpackSliced(out, v)
	return out
}

func TestPackUnpackSlicedRoundTrip(t *testing.T) {
	lengths := []int{0, 1, 7, 63, 64, 65, 128, 129, 1000}
	for _, q := range extensionOrders {
		f := slicedField(t, q)
		rng := rand.New(rand.NewPCG(uint64(q), 3))
		for _, n := range lengths {
			row := RandBytes(f, n, rng)
			got := unpackRow(f, packRow(f, row), n)
			if !bytes.Equal(got, row) {
				t.Fatalf("%s: pack/unpack round trip mismatch at n=%d", f.Name(), n)
			}
		}
		// Packing masks stray high bits, mirroring the padded bulkTab rows.
		raw := make([]byte, 70)
		for i := range raw {
			raw[i] = byte(37 * i)
		}
		masked := make([]byte, len(raw))
		for i, b := range raw {
			masked[i] = b & byte(q-1)
		}
		if got := unpackRow(f, packRow(f, raw), len(raw)); !bytes.Equal(got, masked) {
			t.Fatalf("%s: pack does not mask to m bits", f.Name())
		}
	}
}

// packSlicedRef and unpackSlicedRef are the original per-symbol, per-plane
// loops, kept as the oracles for the word-at-a-time PackSliced and
// UnpackSliced.
func packSlicedRef(f *GF2m, dst []uint64, src []byte) {
	words := SlicedWords(len(src))
	clear(dst)
	for i, s := range src {
		w, b := i>>6, uint(i)&63
		for j := 0; j < f.m; j++ {
			dst[j*words+w] |= uint64((s>>uint(j))&1) << b
		}
	}
}

func unpackSlicedRef(f *GF2m, dst []byte, src []uint64) {
	words := SlicedWords(len(dst))
	for i := range dst {
		w, b := i>>6, uint(i)&63
		var s byte
		for j := 0; j < f.m; j++ {
			s |= byte((src[j*words+w]>>b)&1) << uint(j)
		}
		dst[i] = s
	}
}

// FuzzPackUnpackSliced checks both directions of the word-at-a-time
// codec against the per-symbol oracles for every extension field: packing
// arbitrary bytes (unmasked, any length) into a dirty buffer, and
// unpacking arbitrary plane words (stray bits past the last symbol
// included) into a dirty buffer.
func FuzzPackUnpackSliced(f *testing.F) {
	f.Add([]byte("hello sliced world"), uint8(7))
	f.Add([]byte{}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 0xFF}, 67), uint8(0))
	f.Add(bytes.Repeat([]byte{0x81}, 64), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, sel byte) {
		fld := slicedField(t, extensionOrders[int(sel)%len(extensionOrders)])
		n := len(raw)
		size := fld.M() * SlicedWords(n)
		want := make([]uint64, size)
		packSlicedRef(fld, want, raw)
		got := make([]uint64, size)
		for i := range got {
			got[i] = 0xDEADBEEFDEADBEEF // PackSliced overwrites
		}
		fld.PackSliced(got, raw)
		if !slices.Equal(got, want) {
			t.Fatalf("%s PackSliced(n=%d) diverges from the per-symbol loop", fld.Name(), n)
		}

		// The raw bytes again, now read as plane words.
		planes := make([]uint64, size)
		for i := range planes {
			for b := 0; b < 8 && n > 0; b++ {
				planes[i] |= uint64(raw[(8*i+b)%n]) << (8 * b)
			}
		}
		wantB := make([]byte, n)
		unpackSlicedRef(fld, wantB, planes)
		gotB := bytes.Repeat([]byte{0xEE}, n)
		fld.UnpackSliced(gotB, planes)
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("%s UnpackSliced(n=%d) diverges from the per-symbol loop", fld.Name(), n)
		}
	})
}

func TestSlicedElem(t *testing.T) {
	for _, q := range extensionOrders {
		f := slicedField(t, q)
		rng := rand.New(rand.NewPCG(uint64(q), 5))
		row := RandBytes(f, 150, rng)
		v := packRow(f, row)
		words := SlicedWords(len(row))
		for i, want := range row {
			if got := f.SlicedElem(v, words, i); got != Elem(want) {
				t.Fatalf("%s: SlicedElem(%d) = %d, want %d", f.Name(), i, got, want)
			}
		}
	}
}

// TestAddMulSlicedMatchesScalar cross-checks the plane-XOR kernel against
// the scalar Mul/Add reference for every extension field, every
// coefficient of small fields, and lengths straddling the word-count
// specializations (words ∈ {1, 2, >2}).
func TestAddMulSlicedMatchesScalar(t *testing.T) {
	lengths := []int{1, 7, 63, 64, 65, 128, 129, 200, 300}
	for _, q := range extensionOrders {
		f := slicedField(t, q)
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
				words := SlicedWords(n)
				for _, c := range coeffs {
					src := RandBytes(f, n, rng)
					dst := RandBytes(f, n, rng)
					want := append([]byte(nil), dst...)
					addMulRef(f, want, src, c)

					sDst, sSrc := packRow(f, dst), packRow(f, src)
					f.AddMulSliced(sDst, sSrc, words, c)
					if got := unpackRow(f, sDst, n); !bytes.Equal(got, want) {
						t.Fatalf("AddMulSliced(n=%d, c=%d) diverges from scalar reference", n, c)
					}
				}
			}
		})
	}
}

// TestScaleSlicedMatchesScalar cross-checks the in-place scale kernel.
func TestScaleSlicedMatchesScalar(t *testing.T) {
	for _, q := range extensionOrders {
		f := slicedField(t, q)
		rng := rand.New(rand.NewPCG(uint64(q), 11))
		for _, n := range []int{1, 64, 65, 129, 300} {
			words := SlicedWords(n)
			for _, c := range []Elem{0, 1, Elem(q - 1), Rand(f, rng)} {
				v := RandBytes(f, n, rng)
				want := append([]byte(nil), v...)
				mulRef(f, want, c)

				sv := packRow(f, v)
				f.ScaleSliced(sv, words, c)
				if got := unpackRow(f, sv, n); !bytes.Equal(got, want) {
					t.Fatalf("%s: ScaleSliced(n=%d, c=%d) diverges from scalar reference", f.Name(), n, c)
				}
			}
		}
	}
}

// FuzzAddMulSliced cross-checks the sliced multiply-add kernel against the
// scalar Mul loop over random rows and scalars for every extension field —
// the sliced analogue of FuzzAddMulSlice.
func FuzzAddMulSliced(f *testing.F) {
	f.Add([]byte("hello sliced world"), []byte("abcdefghijklmnopqr"), byte(3), uint8(7))
	f.Add([]byte{0, 1, 2, 3}, []byte{255, 254, 253, 252}, byte(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xAA}, 200), bytes.Repeat([]byte{0x55}, 200), byte(77), uint8(0))
	f.Fuzz(func(t *testing.T, dstRaw, srcRaw []byte, cRaw, sel byte) {
		fld := slicedField(t, extensionOrders[int(sel)%len(extensionOrders)])
		n := min(len(srcRaw), len(dstRaw))
		if n == 0 {
			return
		}
		src := reduceRow(fld, srcRaw[:n])
		dst := reduceRow(fld, dstRaw[:n])
		c := Elem(int(cRaw) % fld.Order())

		want := make([]byte, n)
		for i := 0; i < n; i++ {
			want[i] = byte(fld.Add(Elem(dst[i]), fld.Mul(c, Elem(src[i]))))
		}

		words := SlicedWords(n)
		sSrc := packRow(fld, src)
		// Every available kernel tier must match the element-wise result.
		for _, tier := range AvailableTiers() {
			sDst := packRow(fld, dst)
			withFuzzTier(t, tier, func() { fld.AddMulSliced(sDst, sSrc, words, c) })
			if got := unpackRow(fld, sDst, n); !bytes.Equal(got, want) {
				t.Fatalf("%s AddMulSliced(c=%d, n=%d) tier %v diverges from scalar path:\ngot  %v\nwant %v",
					fld.Name(), c, n, tier, got, want)
			}
		}
	})
}
