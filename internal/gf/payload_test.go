package gf

import (
	"bytes"
	"fmt"
	"testing"

	"math/rand/v2"
)

// TestPayloadCodecMatchesScalar runs the codec's four operations under
// both layouts and every tier against the per-symbol reference, for the
// field with a byte layout (GF(256)) and one without (GF(16), where the
// hook must leave planes in place), at widths around the 64-symbol block.
func TestPayloadCodecMatchesScalar(t *testing.T) {
	for _, q := range []int{16, 256} {
		f := slicedField(t, q)
		for _, bytesLayout := range []bool{false, true} {
			restore := ForcePayloadLayout(bytesLayout)
			codec := f.PayloadCodec()
			restore()
			if codec.bytes != (bytesLayout && q == 256) {
				t.Fatalf("%s forced bytes=%v: codec chose bytes=%v", f.Name(), bytesLayout, codec.bytes)
			}
			for _, tier := range AvailableTiers() {
				t.Run(fmt.Sprintf("%s/bytes=%v/%v", f.Name(), bytesLayout, tier), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(q), 17))
					for _, n := range []int{1, 63, 64, 65, 200, 4096} {
						words := SlicedWords(n)
						for _, c := range []Elem{0, 1, 2, Elem(q - 1), Rand(f, rng)} {
							src, dst := RandBytes(f, n, rng), RandBytes(f, n, rng)
							wantAdd := append([]byte(nil), dst...)
							addMulRef(f, wantAdd, src, c)
							wantMul := append([]byte(nil), src...)
							mulRef(f, wantMul, c)

							rowD, rowS := make([]uint64, f.M()*words), make([]uint64, f.M()*words)
							for i := range rowD {
								rowD[i] = rng.Uint64() // Pack overwrites, padding included
							}
							got := make([]byte, n)
							withTier(t, tier, func() {
								codec.Pack(rowD, dst)
								codec.Pack(rowS, src)
								codec.AddMul(rowD, rowS, words, c)
								codec.Unpack(got, rowD)
							})
							if !bytes.Equal(got, wantAdd) {
								t.Fatalf("AddMul(n=%d, c=%d) diverges from the scalar reference", n, c)
							}
							withTier(t, tier, func() {
								codec.Scale(rowS, words, c)
								codec.Unpack(got, rowS)
							})
							if !bytes.Equal(got, wantMul) {
								t.Fatalf("Scale(n=%d, c=%d) diverges from the scalar reference", n, c)
							}
						}
					}
				})
			}
		}
	}
}

// TestPayloadCodecLayoutByTier pins the unforced choice: bytes exactly on
// the tiers with a vector byte kernel, and only for GF(256).
func TestPayloadCodecLayoutByTier(t *testing.T) {
	for _, tier := range AvailableTiers() {
		withTier(t, tier, func() {
			if got, want := slicedField(t, 256).PayloadCodec().bytes, tier >= TierAVX2; got != want {
				t.Errorf("GF(256) on %v: bytes=%v, want %v", tier, got, want)
			}
			if slicedField(t, 16).PayloadCodec().bytes {
				t.Errorf("GF(16) on %v chose the byte layout", tier)
			}
		})
	}
}
