package gf

// Bit-sliced GF(2^m) kernels: the elimination backend for binary extension
// fields with m > 1.
//
// A row of n field symbols is stored as m *bit-planes* of packed 64-bit
// words, plane-major: plane j holds bit j of every symbol, so the row
// occupies m * SlicedWords(n) contiguous uint64 words and plane j is the
// sub-slice v[j*words : (j+1)*words].
//
//	symbols:   s_0  s_1  ... s_63 | s_64 ...          (one byte each)
//	plane 0:   [ bit 0 of s_0..s_63 ][ bit 0 of s_64.. ]   words uint64
//	plane 1:   [ bit 1 of s_0..s_63 ][ ... ]
//	  ...
//	plane m-1: [ bit m-1 of ... ]
//
// Multiplication by a fixed scalar c is GF(2)-linear on the m bit
// coordinates of a symbol, so it acts on a sliced row as an m x m GF(2)
// matrix applied plane-wise: output plane i receives the XOR of every
// input plane j whose basis image c*x^j has bit i set. dst += c*src is
// therefore at most m^2 word-wise plane XORs — pure XOR word traffic with
// no data-dependent table gathers — instead of one 256-entry lookup per
// symbol. The per-scalar images are precomputed in mulPlanes at field
// construction: mulPlanes[c][j] = c * x^j, the j-th column of the matrix.
//
// Packing inherently masks every byte to its low m bits, the same
// semantics the padded bulkTab rows give the byte kernels.

import (
	"encoding/binary"
	"math/bits"
)

// SlicedWords returns the number of 64-bit words per bit-plane for a row
// of n symbols.
func SlicedWords(n int) int { return (n + 63) / 64 }

// M returns m, the degree of the extension (symbols are m bits).
func (f *GF2m) M() int { return f.m }

// buildMulPlanes fills the per-scalar bit-matrix tables from mulTab:
// mulPlanes[c] holds the matrix columns (images c*x^j for j < m) driving
// the general plane-XOR walk; mulRows[c] holds the transposed rows (bit j
// of mulRows[c][i] = bit i of c*x^j) driving the branchless subset-table
// paths for m ∈ {4, 8}.
func (f *GF2m) buildMulPlanes() {
	f.mulPlanes = make([][8]byte, f.order)
	f.mulRows = make([][8]byte, f.order)
	f.mulRowsU = make([]uint64, f.order)
	for c := 0; c < f.order; c++ {
		for j := 0; j < f.m; j++ {
			img := byte(f.mulTab[c*f.order+(1<<j)])
			f.mulPlanes[c][j] = img
			for i := 0; i < f.m; i++ {
				f.mulRows[c][i] |= ((img >> uint(i)) & 1) << uint(j)
			}
		}
		for i := 0; i < 8; i++ {
			f.mulRowsU[c] |= uint64(f.mulRows[c][i]) << uint(8*i)
		}
	}
	// Tables for the asm byte kernels (a few KiB, built unconditionally
	// so SetTier can switch at any time). The split-nibble table bakes
	// the low-m masking in, and the affine matrix has zero columns past
	// m-1 and zero rows past m-1, so both reproduce the padded-bulkTab
	// semantics c*(s & mask) for arbitrary input bytes.
	f.nibTab = make([]byte, f.order*32)
	for c := 0; c < f.order; c++ {
		for x := 0; x < 16; x++ {
			f.nibTab[c*32+x] = byte(f.mulTab[c*f.order+(x&int(f.mask))])
			f.nibTab[c*32+16+x] = byte(f.mulTab[c*f.order+((x<<4)&int(f.mask))])
		}
	}
	f.gfniTab = make([]uint64, f.order)
	for c := 0; c < f.order; c++ {
		for i := 0; i < 8; i++ {
			f.gfniTab[c] |= uint64(f.mulRows[c][i]) << uint(8*(7-i))
		}
	}
	f.selLog = make([]uint64, 2*f.order)
	for s := range f.selLog {
		f.selLog[s] = f.mulRowsU[f.exp[s]]
	}
}

// PackSliced packs a byte-encoded row into bit-sliced form. dst must have
// length m*SlicedWords(len(src)) and is overwritten. Each source byte is
// masked to its low m bits, mirroring the padded-table semantics of the
// byte kernels.
//
// It works one plane word (64 symbols) at a time: eight 8x8 bit
// transposes turn each group of eight symbol bytes into one byte per
// plane, and one 8x8 byte transpose gathers those into the eight plane
// words. Planes m..7 are computed and dropped, which is the masking.
func (f *GF2m) PackSliced(dst []uint64, src []byte) {
	words := SlicedWords(len(src))
	if len(dst) != f.m*words {
		panic("gf: sliced pack width mismatch")
	}
	var t [8]uint64
	for w := 0; w < words; w++ {
		blk := src[64*w:]
		if len(blk) < 64 {
			var tail [64]byte
			copy(tail[:], blk)
			blk = tail[:]
		}
		for g := range t {
			t[g] = transposeBits8(binary.LittleEndian.Uint64(blk[8*g:]))
		}
		transposeBytes8(&t)
		for j := 0; j < f.m; j++ {
			dst[j*words+w] = t[j]
		}
	}
}

// UnpackSliced unpacks a bit-sliced row back into byte-encoded symbols.
// src must have length m*SlicedWords(len(dst)). It is PackSliced run
// backwards (both transposes are involutions).
func (f *GF2m) UnpackSliced(dst []byte, src []uint64) {
	words := SlicedWords(len(dst))
	if len(src) != f.m*words {
		panic("gf: sliced unpack width mismatch")
	}
	var t [8]uint64
	var tail [64]byte
	for w := 0; w < words; w++ {
		clear(t[f.m:])
		for j := 0; j < f.m; j++ {
			t[j] = src[j*words+w]
		}
		transposeBytes8(&t)
		blk := dst[64*w:]
		out := blk
		if len(blk) < 64 {
			out = tail[:]
		}
		for g, x := range t {
			binary.LittleEndian.PutUint64(out[8*g:], transposeBits8(x))
		}
		if len(blk) < 64 {
			copy(blk, out)
		}
	}
}

// transposeBits8 transposes the 8x8 bit matrix whose row i is byte i of x
// (column j = bit j): three delta swaps of 1-, 2- and 4-bit blocks.
func transposeBits8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// transposeBytes8 transposes the 8x8 byte matrix whose row i is t[i]
// (column j = byte j), swapping 1-, 2- and 4-byte blocks.
func transposeBytes8(t *[8]uint64) {
	const m1, m2, m4 = 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF
	a0, a1, a2, a3, a4, a5, a6, a7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
	a0, a1 = a0&m1|(a1&m1)<<8, (a0>>8)&m1|a1&^m1
	a2, a3 = a2&m1|(a3&m1)<<8, (a2>>8)&m1|a3&^m1
	a4, a5 = a4&m1|(a5&m1)<<8, (a4>>8)&m1|a5&^m1
	a6, a7 = a6&m1|(a7&m1)<<8, (a6>>8)&m1|a7&^m1
	a0, a2 = a0&m2|(a2&m2)<<16, (a0>>16)&m2|a2&^m2
	a1, a3 = a1&m2|(a3&m2)<<16, (a1>>16)&m2|a3&^m2
	a4, a6 = a4&m2|(a6&m2)<<16, (a4>>16)&m2|a6&^m2
	a5, a7 = a5&m2|(a7&m2)<<16, (a5>>16)&m2|a7&^m2
	t[0], t[4] = a0&m4|a4<<32, a0>>32|a4&^m4
	t[1], t[5] = a1&m4|a5<<32, a1>>32|a5&^m4
	t[2], t[6] = a2&m4|a6<<32, a2>>32|a6&^m4
	t[3], t[7] = a3&m4|a7<<32, a3>>32|a7&^m4
}

// SlicedElem extracts symbol i from a bit-sliced row with the given
// per-plane word count — the pivot-coefficient read of the elimination
// loop. The m ∈ {4, 8} unrolls keep the gather's eight independent loads
// in flight instead of serializing through a loop counter.
func (f *GF2m) SlicedElem(v []uint64, words, i int) Elem {
	w, b := i>>6, uint(i)&63
	switch f.m {
	case 8:
		return Elem((v[w]>>b)&1 |
			((v[words+w]>>b)&1)<<1 |
			((v[2*words+w]>>b)&1)<<2 |
			((v[3*words+w]>>b)&1)<<3 |
			((v[4*words+w]>>b)&1)<<4 |
			((v[5*words+w]>>b)&1)<<5 |
			((v[6*words+w]>>b)&1)<<6 |
			((v[7*words+w]>>b)&1)<<7)
	case 4:
		return Elem((v[w]>>b)&1 |
			((v[words+w]>>b)&1)<<1 |
			((v[2*words+w]>>b)&1)<<2 |
			((v[3*words+w]>>b)&1)<<3)
	}
	var c Elem
	for j := 0; j < f.m; j++ {
		c |= Elem((v[j*words+w]>>b)&1) << uint(j)
	}
	return c
}

// Log returns the discrete logarithm of a nonzero element (base: the
// field's generator). It panics on zero. Paired with MulLog it moves the
// elimination factor computation from the 64 KiB mulTab gather onto the
// small L1-resident log/exp tables.
func (f *GF2m) Log(a Elem) uint16 {
	if a == 0 {
		panic("gf: log of zero in " + f.Name())
	}
	return f.log[a]
}

// MulLog returns a * b where b is given by its discrete logarithm.
// a must be nonzero.
func (f *GF2m) MulLog(a Elem, logB uint16) Elem {
	return f.exp[int(f.log[a])+int(logB)]
}

// AddMulSliced performs dst += c*src over bit-sliced rows of the given
// per-plane word count: a no-op for c == 0, a whole-row XOR for c == 1,
// and the plane-matrix XOR walk otherwise. len(dst) and len(src) must be
// at least m*words.
func (f *GF2m) AddMulSliced(dst, src []uint64, words int, c Elem) {
	if c == 0 || words == 0 {
		return
	}
	n := f.m * words
	dst = dst[:n]
	src = src[:n]
	if c == 1 {
		XorWords(dst, src)
		return
	}
	switch f.m {
	case 8:
		f.addMul8(dst, src, words, c)
		return
	case 4:
		f.addMul4(dst, src, words, c)
		return
	}
	tab := &f.mulPlanes[c]
	switch words {
	case 1:
		for j, s := range src {
			img := tab[j]
			for img != 0 {
				i := bits.TrailingZeros8(img)
				img &= img - 1
				dst[i] ^= s
			}
		}
	case 2:
		for j := 0; 2*j < n; j++ {
			img := tab[j]
			if img == 0 {
				continue
			}
			s0, s1 := src[2*j], src[2*j+1]
			for img != 0 {
				i := bits.TrailingZeros8(img)
				img &= img - 1
				dst[2*i] ^= s0
				dst[2*i+1] ^= s1
			}
		}
	default:
		for j := 0; j*words < n; j++ {
			img := tab[j]
			if img == 0 {
				continue
			}
			sp := src[j*words : j*words+words]
			for img != 0 {
				i := bits.TrailingZeros8(img)
				img &= img - 1
				dp := dst[i*words : i*words+words]
				for w, s := range sp {
					dp[w] ^= s
				}
			}
		}
	}
}

// addMul8 is the GF(256) multiply-add: per word-column, the 8 source
// plane words split into two half-space subset-XOR tables (the
// four-Russians trick), and each destination plane folds in exactly two
// table entries selected by the transposed matrix row — branchless, no
// per-set-bit loop, ~45 word ops per column regardless of the scalar's
// popcount.
func (f *GF2m) addMul8(dst, src []uint64, words int, c Elem) {
	rows := &f.mulRows[c]
	r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
	r4, r5, r6, r7 := rows[4], rows[5], rows[6], rows[7]
	var ta, tb [16]uint64 // entry 0 stays zero; the rest is overwritten per column
	for w := 0; w < words; w++ {
		ta[1] = src[w]
		ta[2] = src[words+w]
		ta[4] = src[2*words+w]
		ta[8] = src[3*words+w]
		tb[1] = src[4*words+w]
		tb[2] = src[5*words+w]
		tb[4] = src[6*words+w]
		tb[8] = src[7*words+w]
		fillSubsets(&ta)
		fillSubsets(&tb)
		dst[w] ^= ta[r0&15] ^ tb[r0>>4]
		dst[words+w] ^= ta[r1&15] ^ tb[r1>>4]
		dst[2*words+w] ^= ta[r2&15] ^ tb[r2>>4]
		dst[3*words+w] ^= ta[r3&15] ^ tb[r3>>4]
		dst[4*words+w] ^= ta[r4&15] ^ tb[r4>>4]
		dst[5*words+w] ^= ta[r5&15] ^ tb[r5>>4]
		dst[6*words+w] ^= ta[r6&15] ^ tb[r6>>4]
		dst[7*words+w] ^= ta[r7&15] ^ tb[r7>>4]
	}
}

// addMul4 is the GF(16) counterpart: one 16-entry subset table over the 4
// source planes, one lookup per destination plane.
func (f *GF2m) addMul4(dst, src []uint64, words int, c Elem) {
	rows := &f.mulRows[c]
	r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
	var ta [16]uint64 // entry 0 stays zero; the rest is overwritten per column
	for w := 0; w < words; w++ {
		ta[1] = src[w]
		ta[2] = src[words+w]
		ta[4] = src[2*words+w]
		ta[8] = src[3*words+w]
		fillSubsets(&ta)
		dst[w] ^= ta[r0&15]
		dst[words+w] ^= ta[r1&15]
		dst[2*words+w] ^= ta[r2&15]
		dst[3*words+w] ^= ta[r3&15]
	}
}

// fillSubsets completes a subset-XOR table whose singleton entries
// (indices 1, 2, 4, 8) are already set: entry s becomes the XOR of the
// singletons selected by the bits of s.
func fillSubsets(t *[16]uint64) {
	t[3] = t[1] ^ t[2]
	t[5] = t[1] ^ t[4]
	t[6] = t[2] ^ t[4]
	t[7] = t[3] ^ t[4]
	t[9] = t[1] ^ t[8]
	t[10] = t[2] ^ t[8]
	t[11] = t[3] ^ t[8]
	t[12] = t[4] ^ t[8]
	t[13] = t[5] ^ t[8]
	t[14] = t[6] ^ t[8]
	t[15] = t[7] ^ t[8]
}

// MulRowsPacked returns the same eight selector bytes packed
// little-endian into one word (byte i = transposed row i), so a blocked
// kernel fetches all selectors of a scalar with a single load and
// unpacks them with shifts instead of eight dependent byte loads.
func (f *GF2m) MulRowsPacked(c Elem) uint64 { return f.mulRowsU[c] }

// MulRowsPackedLog returns MulRowsPacked(MulLog(c, logB)) through one
// fused log-domain table, shortening the per-pivot dependency chain of
// the elimination loop (log lookup -> selector, instead of log -> exp ->
// selector). c must be nonzero.
func (f *GF2m) MulRowsPackedLog(c Elem, logB uint16) uint64 {
	return f.selLog[int(f.log[c])+int(logB)]
}

// SlicedTabWords returns the length in words of a precomputed
// subset-table block for a sliced row with the given per-plane word
// count, or 0 when the field has no table-accelerated kernel (m not in
// {4, 8}). The tables depend only on the source row, so a row that is
// XOR-ed into many destinations (a stored echelon row) builds them once
// at insert time and every later multiply-add skips the per-call build.
func (f *GF2m) SlicedTabWords(words int) int {
	switch f.m {
	case 8:
		return 32 * words
	case 4:
		return 16 * words
	default:
		return 0
	}
}

// BuildSlicedTables fills tab (length SlicedTabWords(words)) with the
// per-word-column subset-XOR tables of src: for m=8, two 16-entry tables
// per column (low and high plane halves); for m=4, one.
func (f *GF2m) BuildSlicedTables(tab, src []uint64, words int) {
	switch f.m {
	case 8:
		for w := 0; w < words; w++ {
			ta := (*[16]uint64)(tab[32*w : 32*w+16])
			tb := (*[16]uint64)(tab[32*w+16 : 32*w+32])
			ta[0], tb[0] = 0, 0
			ta[1] = src[w]
			ta[2] = src[words+w]
			ta[4] = src[2*words+w]
			ta[8] = src[3*words+w]
			tb[1] = src[4*words+w]
			tb[2] = src[5*words+w]
			tb[4] = src[6*words+w]
			tb[8] = src[7*words+w]
			fillSubsets(ta)
			fillSubsets(tb)
		}
	case 4:
		for w := 0; w < words; w++ {
			ta := (*[16]uint64)(tab[16*w : 16*w+16])
			ta[0] = 0
			ta[1] = src[w]
			ta[2] = src[words+w]
			ta[4] = src[2*words+w]
			ta[8] = src[3*words+w]
			fillSubsets(ta)
		}
	default:
		panic("gf: no sliced table kernel for " + f.Name())
	}
}

// ScaleSliced performs v = c*v in place over a bit-sliced row. It works
// word-column-wise through an m-word register block, so no scratch row is
// needed (Solve's pivot normalization is the only caller).
func (f *GF2m) ScaleSliced(v []uint64, words int, c Elem) {
	if c == 1 || words == 0 {
		return
	}
	if c == 0 {
		clear(v[:f.m*words])
		return
	}
	tab := &f.mulPlanes[c]
	m := f.m
	for w := 0; w < words; w++ {
		var in [8]uint64
		for j := 0; j < m; j++ {
			in[j] = v[j*words+w]
		}
		for i := 0; i < m; i++ {
			var acc uint64
			for j := 0; j < m; j++ {
				if tab[j]&(1<<uint(i)) != 0 {
					acc ^= in[j]
				}
			}
			v[i*words+w] = acc
		}
	}
}
