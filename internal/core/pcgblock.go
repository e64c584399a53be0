package core

// Draw blocks. The state after n draws is a function of the start state
// alone, state·mul^n + inc·(mul^(n-1)+…+1) — pcgSkip's row n — so the
// states a call's next draws pass through need not wait on each other:
// the amd64 kernels (pcgblock_amd64.s) form eight of them side by side on
// AVX-512, one ZMM lane each, apply DXSM, and consume the outputs in
// place. Every draw is the one Uint64 would return, in the same order;
// the stream then advances by one Skip. They need AVX-512 F, BW and DQ
// (the gf package's gfni512 tier): callers check the tier, as they do
// before a gf kernel, and keep the Uint64 loop as fallback and oracle.

// XorCoinRows sets out to the sum over GF(2) of the rows of flat, each
// len(out) words, that the stream's coins pick, drawing one coin per
// row: row i is taken when bit 0 of the stream's (i+1)-th next draw is
// 1, exactly as
//
//	for each row { if p.Uint64()&1 == 1 { out ^= row } }
//
// and the stream ends where that loop leaves it. Rows are 1, 2 or 4
// words and at most 256 (pcgSkipMax) of them: the widths whose rows fit
// a ZMM register whole and the table's reach. Bit 0 of DXSM's last
// product hi·(lo|1) is bit 0 of hi, so a coin skips that multiply.
func (p *PCG) XorCoinRows(flat, out []uint64) {
	w := len(out)
	rows := 0
	if w > 0 {
		rows = len(flat) / w
	}
	if (w != 1 && w != 2 && w != 4) || rows*w != len(flat) || rows > pcgSkipMax {
		panic("core: XorCoinRows takes at most 256 rows of 1, 2 or 4 words")
	}
	if rows == 0 {
		clear(out)
		return
	}
	xorCoinRowsAsm(p.hi, p.lo, &flat[0], rows, w, &out[0])
	p.Skip(rows)
}

// DrawBytes fills dst with the stream's next len(dst) draws, each masked
// to its low byte by mask — for mask = 2^m - 1 exactly
//
//	for i := range dst { dst[i] = byte(p.Uint64()) & mask }
//
// — and leaves the stream where that loop does. A block covers at most
// 256 draws (the table's reach); a longer dst rebases every 256.
func (p *PCG) DrawBytes(dst []byte, mask byte) {
	for len(dst) > 0 {
		n := min(len(dst), pcgSkipMax)
		drawBytesAsm(p.hi, p.lo, &dst[0], n, uint64(mask))
		p.Skip(n)
		dst = dst[n:]
	}
}
