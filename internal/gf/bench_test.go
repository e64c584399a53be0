package gf

import (
	"fmt"
	"testing"

	"math/rand/v2"
)

// The scalar-vs-bulk pair quantifies the kernel speedup the RLNC hot path
// gets: BenchmarkAddMulScalar is the per-symbol Mul/Add loop the code used
// to run, BenchmarkAddMulSlice is the table-walk/XOR kernel. The ISSUE
// acceptance bar is >= 5x on GF(256) at payloadLen >= 256.

var benchLens = []int{64, 256, 1024, 4096}

func benchRows(f Field, n int) (dst, src []byte) {
	rng := rand.New(rand.NewPCG(1, 2))
	return RandBytes(f, n, rng), RandBytes(f, n, rng)
}

func BenchmarkAddMulScalarGF256(b *testing.B) {
	f := MustNew(256)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				addMulRef(f, dst, src, 0x53)
			}
		})
	}
}

func BenchmarkAddMulSliceGF256(b *testing.B) {
	f := MustNew(256)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.AddMulSlice(dst, src, 0x53)
			}
		})
	}
}

// The fused multi-row kernel against the single-row loop it replaces, at
// the three working sets a payload decoder sees: rows is the number of
// 4 KiB stored rows resident behind the combine — 8 fit L1, 128 (one
// node's arena at k = 128) fit L2, 4096 (32 such nodes) stream from L3.
// One op combines min(rows, 128) rows into a 4 KiB dst, walking the arena
// window by window so the largest case never re-reads a warm row.
func BenchmarkAddMulSlicesGF256(b *testing.B) {
	const rowLen, window = 4096, 128
	f := MustNew(256).(*GF2m)
	for _, rows := range []int{8, 128, 4096} {
		rng := rand.New(rand.NewPCG(5, uint64(rows)))
		arena := RandBytes(f, rows*rowLen, rng)
		srcs := make([][]byte, rows)
		for j := range srcs {
			srcs[j] = arena[j*rowLen : (j+1)*rowLen : (j+1)*rowLen]
		}
		cs := RandVector(f, min(rows, window), rng)
		for j := range cs {
			cs[j] |= 2 // neither skipped nor the XOR path
		}
		dst := make([]byte, rowLen)
		run := func(name string, combine func(win [][]byte)) {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, name), func(b *testing.B) {
				b.SetBytes(int64(len(cs) * rowLen))
				at := 0
				for i := 0; i < b.N; i++ {
					combine(srcs[at : at+len(cs)])
					if at += len(cs); at == rows {
						at = 0
					}
				}
			})
		}
		run("fused", func(win [][]byte) { f.AddMulSlices(dst, win, cs) })
		run("loop", func(win [][]byte) {
			for j, src := range win {
				f.AddMulSlice(dst, src, cs[j])
			}
		})
	}
}

// c == 1 takes the word-wise XOR fast path shared with GF(2).
func BenchmarkAddMulSliceGF256C1(b *testing.B) {
	f := MustNew(256)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.AddMulSlice(dst, src, 1)
			}
		})
	}
}

func BenchmarkAddMulScalarGF2(b *testing.B) {
	f := MustNew(2)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				addMulRef(f, dst, src, 1)
			}
		})
	}
}

func BenchmarkAddMulSliceGF2(b *testing.B) {
	f := MustNew(2)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.AddMulSlice(dst, src, 1)
			}
		})
	}
}

func BenchmarkMulSliceGF256(b *testing.B) {
	f := MustNew(256)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			v, _ := benchRows(f, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.MulSlice(v, 0x53)
			}
		})
	}
}

// The sliced kernel is the GF(2^m) elimination workhorse: dst += c*src as
// at most m^2 plane XORs over packed words instead of one table gather
// per symbol. Benchmarked against BenchmarkAddMulSliceGF256 above at the
// same row lengths (bytes of symbols, i.e. SetBytes matches).
func benchSlicedRows(f *GF2m, n int) (dst, src []uint64) {
	rng := rand.New(rand.NewPCG(1, 2))
	dst = make([]uint64, f.M()*SlicedWords(n))
	src = make([]uint64, f.M()*SlicedWords(n))
	f.PackSliced(dst, RandBytes(f, n, rng))
	f.PackSliced(src, RandBytes(f, n, rng))
	return dst, src
}

func BenchmarkAddMulSlicedGF256(b *testing.B) {
	f := MustNew(256).(*GF2m)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchSlicedRows(f, n)
			words := SlicedWords(n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.AddMulSliced(dst, src, words, 0x53)
			}
		})
	}
}

// The wire adapter's pack/unpack pair at the 4 KiB payload row.
func BenchmarkPackSlicedGF256(b *testing.B) {
	f, _ := NewGF2m(8)
	_, src := benchRows(f, 4096)
	dst := make([]uint64, f.M()*SlicedWords(len(src)))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		f.PackSliced(dst, src)
	}
}

func BenchmarkUnpackSlicedGF256(b *testing.B) {
	f, _ := NewGF2m(8)
	dst, src := benchRows(f, 4096)
	planes := make([]uint64, f.M()*SlicedWords(len(src)))
	f.PackSliced(planes, src)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		f.UnpackSliced(dst, planes)
	}
}

func BenchmarkAddMulSlicedGF16(b *testing.B) {
	f := MustNew(16).(*GF2m)
	for _, n := range benchLens {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchSlicedRows(f, n)
			words := SlicedWords(n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f.AddMulSliced(dst, src, words, 0xB)
			}
		})
	}
}

// The forced-tier variant pins the one tier every machine has, so the
// benchdelta gate tracks it on any runner regardless of CPU features.
// (The avx2/gfni numbers live in the default benchmarks above on hosts
// that auto-select them; CI forces ALGOSSIP_GF_TIER=avx2 there for
// cross-runner determinism.)
func benchWithTier(b *testing.B, tier Tier, fn func()) {
	old := ActiveTier()
	if err := SetTier(tier); err != nil {
		b.Fatalf("SetTier(%v): %v", tier, err)
	}
	defer func() { _ = SetTier(old) }()
	fn()
}

func BenchmarkAddMulSliceGF256TierScalar(b *testing.B) {
	f := MustNew(256)
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			dst, src := benchRows(f, n)
			b.SetBytes(int64(n))
			benchWithTier(b, TierScalar, func() {
				for i := 0; i < b.N; i++ {
					f.AddMulSlice(dst, src, 0x53)
				}
			})
		})
	}
}
