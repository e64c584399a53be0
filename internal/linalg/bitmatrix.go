package linalg

import (
	"crypto/subtle"
	"errors"
	"math/bits"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// BitVec is a packed vector over GF(2), 64 coordinates per word.
type BitVec []uint64

// NewBitVec returns an all-zero vector with the given number of bits.
func NewBitVec(nbits int) BitVec {
	return make(BitVec, (nbits+63)/64)
}

// Set sets bit i to 1.
func (v BitVec) Set(i int) { v[i/64] |= 1 << (uint(i) % 64) }

// Get reports whether bit i is 1.
func (v BitVec) Get(i int) bool { return v[i/64]&(1<<(uint(i)%64)) != 0 }

// Xor performs v ^= w element-wise, through gf.XorWords
// (crypto/subtle.XORBytes; no kernel tier applies). w must not be longer
// than v.
func (v BitVec) Xor(w BitVec) {
	gf.XorWords(v, w)
}

// Or performs v |= w element-wise. w must not be longer than v.
func (v BitVec) Or(w BitVec) {
	for i, x := range w {
		v[i] |= x
	}
}

// Zero clears every bit in place.
func (v BitVec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// IsZero reports whether every bit is 0.
func (v BitVec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v BitVec) OnesCount() int {
	total := 0
	for _, x := range v {
		total += bits.OnesCount64(x)
	}
	return total
}

// Clone returns an independent copy of v.
func (v BitVec) Clone() BitVec {
	return append(BitVec(nil), v...)
}

// LowestSet returns the index of the lowest set bit, or -1 if v is zero.
func (v BitVec) LowestSet() int {
	for i, x := range v {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// BitMatrix maintains rows over GF(2) in row-echelon form using packed
// 64-bit words, optionally carrying an augmented []byte payload per row
// (one byte-encoded GF(2) symbol per byte, the same encoding the generic
// backend uses) so payload-carrying GF(2) simulations get the word-wise
// XOR path end to end. A rank update costs O(rank * cols / 64) word
// operations plus O(rank * extra) XOR-ed payload bytes.
//
// Memory behavior: the coefficient rows are one flat block in pivot
// order — row i is flat[i*words:(i+1)*words], its pivot column pivot[i]
// — so reduce and emit stream rank*words consecutive words with no
// per-row header to load, and a 16-column matrix is 128 B of rows plus
// 64 B of pivots. The block and the pivot array are allocated at the
// first insert with room for cols rows (rank never exceeds cols); an
// insert shifts the rows behind the new pivot up by one (at most
// cols*words words, cols times in a matrix's life). Payload rows are
// too wide to shift: the n-th stored takes the n-th slot of a
// matrix-owned arena and only their headers move. Elimination scratch is
// reused across calls, so the steady-state Add/WouldHelp path performs
// no allocations and never retains caller memory, and Reset keeps all of
// it.
//
// The zero value is not usable; construct with NewBitMatrix or
// NewBitMatrixPayload.
type BitMatrix struct {
	cols  int
	extra int
	words int      // words per packed row
	flat  []uint64 // the stored rows, pivot-ordered, words each
	pivot []int32  // pivot[i] is the pivot column of row i, strictly increasing
	pay   [][]byte // payload parts, parallel to the rows (nil when extra == 0)

	arenaP   []byte // payload arena; the n-th row stored is at n*extra
	scratchC BitVec // reusable reduce buffer (coefficients)
}

// NewBitMatrix returns an empty GF(2) matrix with the given number of
// columns and no payload.
func NewBitMatrix(cols int) *BitMatrix {
	return NewBitMatrixPayload(cols, 0)
}

// NewBitMatrixPayload returns an empty GF(2) matrix with cols coefficient
// columns and extra augmented payload bytes per row.
func NewBitMatrixPayload(cols, extra int) *BitMatrix {
	if cols <= 0 {
		panic("linalg: cols must be positive")
	}
	if extra < 0 {
		panic("linalg: extra must be non-negative")
	}
	return &BitMatrix{cols: cols, extra: extra, words: (cols + 63) / 64}
}

// Reset empties the matrix for reuse, keeping its row block, arena and
// scratch (see RankMatrix.Reset).
func (m *BitMatrix) Reset() {
	m.flat, m.pivot, m.pay = m.flat[:0], m.pivot[:0], m.pay[:0]
	poison(m.flat[:cap(m.flat)], []uint64(m.scratchC))
	poison(m.arenaP)
}

// Words returns the number of 64-bit words per packed row.
func (m *BitMatrix) Words() int { return m.words }

// Rank returns the number of independent rows stored.
func (m *BitMatrix) Rank() int { return len(m.pivot) }

// Full reports whether rank equals cols.
func (m *BitMatrix) Full() bool { return len(m.pivot) == m.cols }

// row returns the i-th stored row as a view into the block.
func (m *BitMatrix) row(i int) BitVec {
	return m.flat[i*m.words : (i+1)*m.words : (i+1)*m.words]
}

// reduce eliminates (row, pay) in place against the echelon rows and
// returns the pivot bit, or -1 if the row reduced to zero. A nil pay
// skips payload elimination (coefficient-only queries).
//
// The coefficient-only one-, two- and four-word cases (k <= 128 and
// 193 <= k <= 256, the simulated sizes) keep the row in registers and run
// branchless: the pivot-bit test becomes an all-ones/all-zeros mask, so
// the 50%-taken row-XOR branch — a guaranteed mispredict on random coded
// traffic — disappears from the inner loop. The word holding the pivot
// bit is picked by comparing p with 64, 128 and 192 (conditional moves).
// Three-word rows take the general path: no workload runs them.
func (m *BitMatrix) reduce(row BitVec, pay []byte) int {
	if pay == nil {
		switch m.words {
		case 1:
			r0 := row[0]
			flat := m.flat[:len(m.pivot)]
			for i, p := range m.pivot {
				mask := -((r0 >> uint(p)) & 1)
				r0 ^= flat[i] & mask
			}
			row[0] = r0
		case 2:
			r0, r1 := row[0], row[1]
			flat := m.flat[:2*len(m.pivot)]
			for i, p := range m.pivot {
				w := r0
				if p >= 64 {
					w = r1
				}
				mask := -((w >> (uint(p) % 64)) & 1)
				er := flat[2*i : 2*i+2]
				r0 ^= er[0] & mask
				r1 ^= er[1] & mask
			}
			row[0], row[1] = r0, r1
		case 4:
			m.reduce4(row)
		default:
			flat, w := m.flat, m.words
			for i, p := range m.pivot {
				if row.Get(int(p)) {
					row.Xor(flat[i*w : (i+1)*w])
				}
			}
		}
		return row.LowestSet()
	}
	flat, w := m.flat, m.words
	for i, p := range m.pivot {
		if row.Get(int(p)) {
			row.Xor(flat[i*w : (i+1)*w])
			subtle.XORBytes(pay, pay, m.pay[i])
		}
	}
	return row.LowestSet()
}

// reduce4 is reduce's coefficient-only four-word case. It is out of
// line, like combine4, so that the one- and two-word cases compile as
// they did before it existed.
func (m *BitMatrix) reduce4(row BitVec) {
	r0, r1, r2, r3 := row[0], row[1], row[2], row[3]
	flat := m.flat[:4*len(m.pivot)]
	for i, p := range m.pivot {
		w := r0
		if p >= 64 {
			w = r1
		}
		if p >= 128 {
			w = r2
		}
		if p >= 192 {
			w = r3
		}
		mask := -((w >> (uint(p) % 64)) & 1)
		er := flat[4*i : 4*i+4]
		r0 ^= er[0] & mask
		r1 ^= er[1] & mask
		r2 ^= er[2] & mask
		r3 ^= er[3] & mask
	}
	row[0], row[1], row[2], row[3] = r0, r1, r2, r3
}

// insert places an already-reduced row with pivot bit p, keeping pivots
// strictly increasing: the rows behind position at move up one slot and
// the row is copied into the gap (the payload into the arena); the
// caller keeps ownership of its buffers.
func (m *BitMatrix) insert(row BitVec, pay []byte, p int) {
	if m.flat == nil {
		// Rank can only reach cols: size the block once so inserts never
		// regrow.
		m.flat = make([]uint64, 0, m.cols*m.words)
		m.pivot = make([]int32, 0, m.cols)
		if m.extra > 0 {
			m.pay = make([][]byte, 0, m.cols)
			m.arenaP = make([]byte, m.cols*m.extra)
		}
	}
	// Pivots fill roughly in increasing order, so the slot is near the end.
	n, w := len(m.pivot), m.words
	at := n
	for at > 0 && int(m.pivot[at-1]) > p {
		at--
	}
	m.flat = m.flat[:(n+1)*w]
	copy(m.flat[(at+1)*w:], m.flat[at*w:n*w])
	copy(m.flat[at*w:(at+1)*w], row)
	m.pivot = m.pivot[:n+1]
	copy(m.pivot[at+1:], m.pivot[at:n])
	m.pivot[at] = int32(p)
	if m.extra > 0 {
		rowP := m.arenaP[n*m.extra:][:m.extra:m.extra]
		copy(rowP, pay)
		m.pay = m.pay[:n+1]
		copy(m.pay[at+1:], m.pay[at:n])
		m.pay[at] = rowP
	}
}

// Add inserts the row if independent, reporting whether the rank
// increased. The input is consumed (reduced in place, then copied into
// the matrix on success); pass a copy if the caller needs it again.
// Payload-carrying matrices require AddPayload.
func (m *BitMatrix) Add(row BitVec) bool {
	if m.extra > 0 {
		panic("linalg: payload-carrying BitMatrix needs AddPayload")
	}
	return m.AddPayload(row, nil)
}

// AddPayload inserts the row plus its extra-length payload if the
// coefficient part is independent, reporting whether the rank increased.
// Both inputs are consumed (reduced in place); on success the surviving
// row is copied into the matrix, so the caller keeps ownership of its
// (now clobbered) buffers either way.
func (m *BitMatrix) AddPayload(row BitVec, pay []byte) bool {
	if len(pay) != m.extra {
		panic("linalg: payload width mismatch")
	}
	if m.Full() {
		return false // the row space is everything; nothing can help
	}
	if m.extra == 0 {
		pay = nil // no payload rows are kept; take the coefficient-only path
	}
	p := m.reduce(row, pay)
	if p < 0 {
		return false
	}
	m.insert(row, pay, p)
	return true
}

// WouldHelp reports whether the row is independent of the stored rows
// without modifying the matrix or the input. It reduces in a reusable
// scratch buffer: no allocation, no defensive copy for the caller.
func (m *BitMatrix) WouldHelp(row BitVec) bool {
	if m.Full() {
		return false
	}
	if m.scratchC == nil {
		m.scratchC = make(BitVec, m.words)
	}
	copy(m.scratchC, row)
	return m.reduce(m.scratchC, nil) >= 0
}

// Row returns the i-th stored echelon row. The returned slice aliases the
// row block: it must not be modified, and it is valid only until the next
// insert, which shifts the rows behind the new pivot (Clone it to keep it
// longer).
func (m *BitMatrix) Row(i int) BitVec { return m.row(i) }

// Payload returns the augmented payload of the i-th stored echelon row
// (nil when extra == 0). Aliases internal storage; must not be modified.
func (m *BitMatrix) Payload(i int) []byte {
	if m.extra == 0 {
		return nil
	}
	return m.pay[i]
}

// RandomCombinationInto fills out (length Words) and pay (length Extra;
// nil when extra == 0) with a uniformly random GF(2) combination of the
// stored rows (each row included independently with probability 1/2),
// reusing the caller's buffers — the zero-allocation emit path. It
// reports false without drawing randomness when the matrix is empty.
// The random stream consumption (one Uint64 per stored row, in pivot
// order) is identical to the generic backend's gf.Rand-per-row draw over
// GF(2), so swapping backends preserves fixed-seed trajectories. rng
// must be a core.NewRand stream: on any other source it panics
// (core.Generator) before writing either buffer.
func (m *BitMatrix) RandomCombinationInto(rng *rand.Rand, out BitVec, pay []byte) bool {
	if len(m.pivot) == 0 {
		return false
	}
	if len(out) != m.words {
		panic("linalg: combination width mismatch")
	}
	if len(pay) != m.extra {
		panic("linalg: combination payload width mismatch")
	}
	// Every loop below draws through g, the generator of the caller's
	// core.NewRand stream, whose Uint64 inlines into the loop.
	g := core.Generator(rng)
	if m.extra == 0 {
		if (m.words == 1 || m.words == 2 || m.words == 4) && drawsInBlocks(len(m.pivot)) {
			// The same coins, eight a ZMM step, fused with the XORs.
			g.XorCoinRows(m.flat, out)
			return true
		}
		// Branchless accumulation for the common packed widths: the coin
		// flip becomes a mask, so the emit loop has no data-dependent
		// branches (one draw per row, exactly as the generic contract).
		// These loops are also the block kernel's oracle.
		switch m.words {
		case 1:
			var a0 uint64
			for _, r0 := range m.flat {
				a0 ^= r0 & -(g.Uint64() & 1)
			}
			out[0] = a0
			return true
		case 2:
			var a0, a1 uint64
			for flat := m.flat; len(flat) >= 2; flat = flat[2:] {
				mask := -(g.Uint64() & 1)
				a0 ^= flat[0] & mask
				a1 ^= flat[1] & mask
			}
			out[0], out[1] = a0, a1
			return true
		case 4:
			m.combine4(g, out)
			return true
		}
		pay = nil
	}
	out.Zero()
	clear(pay)
	for i := range m.pivot {
		if g.Uint64()&1 == 1 {
			m.xorRowInto(i, out, pay)
		}
	}
	return true
}

// drawBlockMin is the fewest draws an emit takes in blocks. One block is
// a latency chain — the eight states, DXSM's multiply, the fold — worth
// about five inlined draws: on one-word rows at rank 1–4 the Uint64 loop
// took 11–28 ns against the kernel's 27–37, they met at rank 6, and from
// rank 8 the kernel led (36 against 53 ns).
const drawBlockMin = 8

// drawsInBlocks reports whether an emit of n draws takes them eight at a
// time (core.PCG.XorCoinRows and DrawBytes, DESIGN.md "Draw blocks"): on
// the gfni512 tier, whose AVX-512 the block kernels need, from one whole
// block up. The draws are the same either way; otherwise the Uint64
// loops run.
func drawsInBlocks(n int) bool { return n >= drawBlockMin && gf.ActiveTier() >= gf.TierGFNI512 }

// combine4 is RandomCombinationInto's rank-only four-word case, out of
// line like reduce4.
func (m *BitMatrix) combine4(g *core.PCG, out BitVec) {
	var a0, a1, a2, a3 uint64
	for flat := m.flat; len(flat) >= 4; flat = flat[4:] {
		mask := -(g.Uint64() & 1)
		a0 ^= flat[0] & mask
		a1 ^= flat[1] & mask
		a2 ^= flat[2] & mask
		a3 ^= flat[3] & mask
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

// xorRowInto adds stored row i, and its payload unless pay is nil, into
// the combination being built.
func (m *BitMatrix) xorRowInto(i int, out BitVec, pay []byte) {
	out.Xor(m.row(i))
	if pay != nil {
		subtle.XORBytes(pay, pay, m.pay[i])
	}
}

// Solve performs full back-substitution and returns the decoded
// payloads: a cols x extra byte matrix whose i-th row is the payload of
// unknown i. It returns ErrNotFullRank when Rank() < Cols. The stored
// rows are reduced in place (which preserves the row space and every
// row's pivot, so further Adds remain correct).
func (m *BitMatrix) Solve() ([][]byte, error) {
	if m.extra == 0 {
		return nil, errors.New("linalg: BitMatrix has no payload to solve for")
	}
	if !m.Full() {
		return nil, ErrNotFullRank
	}
	// Pivots are already 1 over GF(2); eliminate above, bottom-up. With
	// full rank, pivot[i] == i for all i.
	for i := m.cols - 1; i >= 0; i-- {
		p, ri := int(m.pivot[i]), m.row(i)
		for j := 0; j < i; j++ {
			if rj := m.row(j); rj.Get(p) {
				rj.Xor(ri)
				subtle.XORBytes(m.pay[j], m.pay[j], m.pay[i])
			}
		}
	}
	out := make([][]byte, m.cols)
	for i := range out {
		out[i] = append([]byte(nil), m.pay[i]...)
	}
	return out, nil
}
