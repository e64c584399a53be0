package core

import (
	"slices"
	"testing"

	"algossip/internal/gf/cpufeat"
)

// needBlocks skips a draw-block test, by name, on a host whose CPU cannot
// run the kernels; every such host draws through the Uint64 loops.
func needBlocks(t testing.TB) {
	t.Helper()
	if !cpufeat.X86.HasAVX512 {
		t.Skipf("%s skipped: no AVX-512 F/DQ/BW/VL on this host (cpufeat: %s), so the draw-block kernels never run here", t.Name(), cpufeat.Summary())
	}
}

// coinLoop is XorCoinRows' oracle: one Uint64 per row, bit 0 picks it.
func coinLoop(p *PCG, flat, out []uint64) {
	clear(out)
	for r := 0; r < len(flat); r += len(out) {
		if p.Uint64()&1 == 1 {
			for w := range out {
				out[w] ^= flat[r+w]
			}
		}
	}
}

// checkBlock holds XorCoinRows over rows rows of words words, and
// DrawBytes of n draws under mask, from state (hi, lo) to the loops: the
// same words, the same bytes and the same end state.
func checkBlock(t *testing.T, hi, lo uint64, words, rows, n int, mask byte) {
	t.Helper()
	flat := make([]uint64, words*rows)
	fill := &PCG{hi: ^lo, lo: hi}
	for i := range flat {
		flat[i] = fill.Uint64()
	}
	want, got := make([]uint64, words), make([]uint64, words)
	ref, blk := &PCG{hi: hi, lo: lo}, &PCG{hi: hi, lo: lo}
	coinLoop(ref, flat, want)
	for i := range got {
		got[i] = 0xA5A5A5A5A5A5A5A5 // overwritten, not accumulated
	}
	blk.XorCoinRows(flat, got)
	if !slices.Equal(got, want) || *blk != *ref {
		t.Fatalf("XorCoinRows from (%#x, %#x), %d rows of %d words: %#x, end %v; loop %#x, end %v", hi, lo, rows, words, got, *blk, want, *ref)
	}

	wantB, gotB := make([]byte, n), make([]byte, n+1)
	gotB[n] = 0x5A // a store past n would show here
	ref, blk = &PCG{hi: hi, lo: lo}, &PCG{hi: hi, lo: lo}
	for i := range wantB {
		wantB[i] = byte(ref.Uint64()) & mask
	}
	blk.DrawBytes(gotB[:n], mask)
	if !slices.Equal(gotB[:n], wantB) || gotB[n] != 0x5A || *blk != *ref {
		t.Fatalf("DrawBytes from (%#x, %#x), %d draws, mask %#x: %x, end %v; loop %x, end %v", hi, lo, n, mask, gotB, *blk, wantB, *ref)
	}
}

// TestDrawBlockKernels sweeps every row count the table reaches at each
// width, and draw counts past it (rebasing every 256), from states whose
// low words carry into the high ones.
func TestDrawBlockKernels(t *testing.T) {
	needBlocks(t)
	states := [][2]uint64{{0, 0}, {1, 2}, {^uint64(0), ^uint64(0)}, {0x9e3779b97f4a7c15, 1 << 63}}
	for _, st := range states {
		for _, words := range []int{1, 2, 4} {
			for rows := 0; rows <= pcgSkipMax; rows++ {
				checkBlock(t, st[0], st[1], words, rows, rows+rows/4, []byte{1, 3, 15, 255}[rows%4])
			}
		}
	}
}

// TestXorCoinRowsRefusesShapes: a width without a kernel, a ragged block
// or more rows than the table reaches panic before anything is drawn.
func TestXorCoinRowsRefusesShapes(t *testing.T) {
	for name, c := range map[string]struct{ flat, out int }{
		"three words": {9, 3},
		"ragged":      {5, 2},
		"257 rows":    {257, 1},
		"no words":    {4, 0},
	} {
		func() {
			p := &PCG{hi: 1, lo: 2}
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
				if *p != (PCG{hi: 1, lo: 2}) {
					t.Errorf("%s: the stream was advanced", name)
				}
			}()
			p.XorCoinRows(make([]uint64, c.flat), make([]uint64, c.out))
		}()
	}
}

func FuzzDrawBlock(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(8), uint8(0))
	f.Add(^uint64(0), ^uint64(0), uint16(256), uint8(1))
	f.Add(uint64(1), uint64(1<<63), uint16(9), uint8(2))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(7), uint16(300), uint8(3))
	f.Fuzz(func(t *testing.T, hi, lo uint64, rank uint16, width uint8) {
		needBlocks(t)
		words := []int{1, 2, 4}[width%3]
		rows := int(rank) % (pcgSkipMax + 1)
		checkBlock(t, hi, lo, words, rows, int(rank)%600, byte(1)<<(width%9)-1)
	})
}

// benchDraws times DrawBytes against the Uint64 loop at r draws a call:
// the coefficient draws of one emit at rank r. The block form runs
// wherever the CPU can (gf's tier setting does not reach core) and is
// skipped, by name, elsewhere; so only the loop form is pinned in
// BENCH_BASELINE.json, whose gate fails on a missing benchmark.
func benchDraws(b *testing.B, r int) {
	dst := make([]byte, r)
	p := &PCG{hi: 1, lo: 2}
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i := range dst {
				dst[i] = byte(p.Uint64()) & 0xff
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		needBlocks(b)
		b.ReportAllocs()
		for range b.N {
			p.DrawBytes(dst, 0xff)
		}
	})
}

func BenchmarkPCGDraws16(b *testing.B)  { benchDraws(b, 16) }
func BenchmarkPCGDraws64(b *testing.B)  { benchDraws(b, 64) }
func BenchmarkPCGDraws128(b *testing.B) { benchDraws(b, 128) }
func BenchmarkPCGDraws256(b *testing.B) { benchDraws(b, 256) }
