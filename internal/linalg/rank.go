// Package linalg provides the linear algebra needed by random linear
// network coding: incremental Gaussian elimination with rank tracking over
// an arbitrary finite field, decoding by back-substitution, and a fast
// bitset specialization for GF(2) used by large-scale simulations.
//
// The central object is the RankMatrix: each gossip node stores the linear
// equations it has received in (non-reduced) row-echelon form. A received
// combination is *helpful* (paper Definition 3) exactly when inserting it
// increases the rank, which the echelon form detects in O(rank * width)
// time.
package linalg

import (
	"errors"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// ErrNotFullRank is returned by Solve when the stored equations do not yet
// determine all unknowns.
var ErrNotFullRank = errors.New("linalg: matrix is not full rank")

// RankMatrix maintains a set of rows over a finite field in row-echelon
// form. Each row has a cols-length coefficient part ([]gf.Elem, one symbol
// per unknown) and an extra-length augmented part (a []byte payload row).
// Elimination is driven by the coefficient part only. A payload is
// helpful (Definition 3) only through its coefficients and is read only
// when a combination is emitted or the system solved, so it is stored as
// it arrived, in arrival order and never combined; each echelon row keeps
// instead a transform row — which combination of the raw payloads it
// stands for — built from the factors elimination records (k bytes a row,
// where a payload is kilobytes). A random combination is built from
// factors: the draws (RandomFactorsInto, into the caller's buffer), then
// the coefficients, and the payload by folding the factors through the
// transform rows into one combination of the raw rows (CombineInto),
// which a caller may run later as long as no row is inserted in between;
// a rank-only matrix draws and combines the same way, without the
// payload. Over GF(2^m) every combination of rows goes through the fused
// kernel.
//
// An emit only reads the matrix: RandomCombinationInto, RandomFactorsInto
// and CombineInto write nothing but the caller's buffers (and advance the
// caller's stream; the folded factors live on the emit's own stack), so
// any number of goroutines may emit from one matrix at once, each into
// buffers of its own, while nobody inserts.
//
// One insert, one random source: AddOwned reduces in the caller's
// buffer, which every caller owns (a caller that needs the row again
// passes a copy), and every draw comes from a core.NewRand stream, whose
// generator the draw loop inlines (core.Generator refuses any other).
//
// Memory behavior: surviving rows are copied into matrix-owned arenas,
// and the arenas, the row bookkeeping and the elimination scratch are all
// sized once, at the first insert (at most cols rows can ever be
// retained), so the steady-state AddOwned/WouldHelp/
// RandomCombinationInto path performs no allocations and never retains
// caller memory. Reset empties the matrix and keeps all of it, so a
// matrix reused at the same shape allocates nothing at all. A rank-only
// matrix (extra == 0) keeps no payload bookkeeping at all.
//
// The zero value is not usable; construct with NewRankMatrix.
type RankMatrix struct {
	f gf.Field
	// f2m is f when it is a binary extension field, resolved once so the
	// per-row loops of reduce and emit call its kernels directly instead
	// of through the interface; nil for every other field.
	f2m    *gf.GF2m
	cols   int
	extra  int
	rows   [][]gf.Elem // coefficient parts, pivot columns strictly increasing
	pivot  []int       // pivot[i] is the pivot column of rows[i]
	pivFac []gf.Elem   // -1/rows[i][pivot[i]], cached at insert time
	// The payload side (nil when extra == 0): raw[j] is the payload of the
	// j-th row stored, as it arrived, and xform, parallel to rows, says
	// what each echelon row's payload is: Σ_j xform[i][j]·raw[j].
	raw   [][]byte
	xform [][]gf.Elem

	// The arenas hold the n-th row stored at offset n·width, so a row's
	// storage follows from the rank alone.
	arenaC   []gf.Elem // coefficient rows
	arenaX   []gf.Elem // transform rows
	arenaP   []byte    // raw payload rows
	scratchC []gf.Elem // reusable reduce buffer (coefficients)
	// facs[i] is the factor stored row i contributes to the row being
	// reduced, for its transform row (nil when extra == 0).
	facs []gf.Elem
}

// emitBlock is how many factors a rank-only RandomCombinationInto draws,
// on its own stack, before it combines the rows they belong to: a
// multiple of the four rows the fused kernel streams a pass.
const emitBlock = 64

// payBlock is how many factors a payload-carrying combination folds into
// raw-row factors at once, and how many raw rows one stack block of those
// covers: up to payBlock stored rows, an emit reads each raw row once;
// above it, RandomCombinationInto reads them once per block of its draws.
const payBlock = 256

// NewRankMatrix returns an empty matrix over field f with cols coefficient
// columns and extra augmented payload bytes per row.
func NewRankMatrix(f gf.Field, cols, extra int) *RankMatrix {
	if cols <= 0 {
		panic("linalg: cols must be positive")
	}
	if extra < 0 {
		panic("linalg: extra must be non-negative")
	}
	f2m, _ := f.(*gf.GF2m)
	return &RankMatrix{f: f, f2m: f2m, cols: cols, extra: extra}
}

// Reset empties the matrix for reuse: rank goes to 0, and the arenas,
// the row bookkeeping and the scratch are kept. A row's arena slots
// follow from the rank and are written before they are read, so nothing
// is cleared; under the race detector the kept memory is poisoned first,
// so a read before a write changes what the matrix computes.
func (m *RankMatrix) Reset() {
	m.rows, m.pivot, m.pivFac = m.rows[:0], m.pivot[:0], m.pivFac[:0]
	m.raw, m.xform = m.raw[:0], m.xform[:0]
	core.Poison(m.arenaC, m.arenaX, m.scratchC, m.facs)
	core.Poison(m.arenaP)
}

// Rank returns the number of linearly independent rows stored.
func (m *RankMatrix) Rank() int { return len(m.rows) }

// Full reports whether the matrix has full rank, i.e. the linear system is
// solvable and the node can decode all k initial messages.
func (m *RankMatrix) Full() bool { return len(m.rows) == m.cols }

// Row returns the coefficient part of the i-th stored echelon row. The
// returned slice aliases internal storage and must not be modified.
func (m *RankMatrix) Row(i int) []gf.Elem { return m.rows[i] }

// PayloadInto overwrites dst (length Extra) with the augmented payload of
// the i-th stored echelon row, computed from the raw rows it stands for.
// It only reads the matrix.
func (m *RankMatrix) PayloadInto(i int, dst []byte) {
	if len(dst) != m.extra {
		panic("linalg: payload width mismatch")
	}
	clear(dst)
	if m.extra > 0 {
		m.addMulRaw(dst, m.raw, m.xform[i][:len(m.raw)])
	}
}

// reduce eliminates coeffs against the stored echelon rows in place and
// returns the pivot column, or -1 if it reduced to zero. A non-nil facs
// (length Rank()) receives the factor each stored row contributed, for
// the new row's transform — only the coefficients decide whether there
// is a row to store.
func (m *RankMatrix) reduce(coeffs, facs []gf.Elem) int {
	// row -= (c / rows[i][p]) * rows[i]; the pivot's negated inverse is
	// cached at insert time, so each elimination step costs one Mul
	// instead of a Div+Neg pair. Over GF(2^m) the kernel walks every
	// row in one call (the same steps, the same factors).
	if f := m.f2m; f != nil {
		f.ReduceRows(gf.AsBytes(coeffs), gf.AsByteRows(m.rows), m.pivot, m.pivFac, facs)
	} else {
		clear(facs)
		f := m.f
		for i, p := range m.pivot {
			c := coeffs[p]
			if c == 0 {
				continue
			}
			factor := f.Mul(c, m.pivFac[i])
			f.AXPY(coeffs, m.rows[i], factor)
			if facs != nil {
				facs[i] = factor
			}
		}
	}
	for j := 0; j < m.cols; j++ {
		if coeffs[j] != 0 {
			return j
		}
	}
	return -1
}

// addMulRaw performs pay += Σ cs[j]·rows[j] over raw payload rows: each
// streamed once, four to a pass over pay on a GF(2^m) matrix.
func (m *RankMatrix) addMulRaw(pay []byte, rows [][]byte, cs []gf.Elem) {
	if m.f2m != nil {
		m.f2m.AddMulSlices(pay, rows, cs)
		return
	}
	for j, c := range cs {
		m.f.AddMulSlice(pay, rows[j], c)
	}
}

// foldXforms performs dst += Σ facs[i]·xform[i][lo:lo+len(dst)] over
// transform rows. dst may be an emit's stack block: it reaches the
// GF(2^m) kernels, which keep nothing, and no interface method, which
// would move it to the heap — the other fields go element by element.
func (m *RankMatrix) foldXforms(dst []gf.Elem, xform [][]gf.Elem, lo int, facs []gf.Elem) {
	if f := m.f2m; f != nil {
		if lo == 0 {
			f.AddMulSlices(gf.AsBytes(dst), gf.AsByteRows(xform), facs)
			return
		}
		for i, c := range facs {
			f.AddMulSlice(gf.AsBytes(dst), gf.AsBytes(xform[i][lo:lo+len(dst)]), c)
		}
		return
	}
	f := m.f
	for i, c := range facs {
		if c == 0 {
			continue
		}
		for j, x := range xform[i][lo : lo+len(dst)] {
			dst[j] = f.Add(dst[j], f.Mul(c, x))
		}
	}
}

// checkWidths panics on a caller-side width bug (the network-facing
// screens live in rlnc).
func (m *RankMatrix) checkWidths(coeffs []gf.Elem, payload []byte) {
	if len(coeffs) != m.cols {
		panic("linalg: coefficient width mismatch")
	}
	if len(payload) != m.extra {
		panic("linalg: payload width mismatch")
	}
}

// AddOwned inserts the given row — cols coefficients plus an extra-length
// payload (nil when extra == 0) — if it is linearly independent of the
// stored rows, keeping echelon form. It reports whether the rank
// increased, i.e. whether the row was a *helpful message*. It reduces the
// coefficients directly in the caller's buffer, clobbering them: the
// caller must treat the contents as consumed but keeps the buffers
// themselves — the packet-pool recycling contract of the coded hot path.
// The payload is only ever read, and only when the row is stored (copied
// into the arena); neither input is retained.
func (m *RankMatrix) AddOwned(coeffs []gf.Elem, payload []byte) bool {
	m.checkWidths(coeffs, payload)
	if m.Full() {
		return false // the row space is everything; nothing can help
	}
	var facs []gf.Elem
	if m.extra > 0 {
		facs = m.facs[:len(m.rows)]
	}
	p := m.reduce(coeffs, facs)
	if p < 0 {
		return false
	}
	m.insert(coeffs, payload, facs, p)
	return true
}

// ensureScratch sizes WouldHelp's reduce buffer once.
func (m *RankMatrix) ensureScratch() {
	if m.scratchC == nil {
		m.scratchC = make([]gf.Elem, m.cols)
	}
}

// insert stores a row whose coefficients are reduced, with pivot column
// p, keeping pivots strictly increasing: the coefficients as reduced, the
// payload as given, and a transform row saying what reduce made of that
// payload — itself plus Σ facs[i]·(payload of stored row i), facs being
// the factors reduce recorded. Rank can only reach cols, so the first
// insert sizes the arenas and the bookkeeping for good: the n-th row
// stored takes the n-th slot of each arena and inserts never regrow
// anything.
func (m *RankMatrix) insert(coeffs []gf.Elem, pay []byte, facs []gf.Elem, p int) {
	if m.rows == nil {
		m.rows = make([][]gf.Elem, 0, m.cols)
		m.pivot = make([]int, 0, m.cols)
		m.pivFac = make([]gf.Elem, 0, m.cols)
		sq := m.cols * m.cols
		if m.extra > 0 {
			// One block holds the coefficient and transform arenas, the
			// first capped so no row of it reaches into the second.
			block := make([]gf.Elem, 2*sq)
			m.arenaC, m.arenaX = block[:sq:sq], block[sq:]
			m.raw = make([][]byte, 0, m.cols)
			m.xform = make([][]gf.Elem, 0, m.cols)
			m.arenaP = make([]byte, m.cols*m.extra)
			m.facs = make([]gf.Elem, m.cols)
		} else {
			m.arenaC = make([]gf.Elem, sq)
		}
	}
	n := len(m.rows)
	rowC := m.arenaC[n*m.cols:][:m.cols:m.cols]
	copy(rowC, coeffs)
	// Pivots fill roughly in increasing order, so the slot is near the end.
	at := n
	for at > 0 && m.pivot[at-1] > p {
		at--
	}
	if m.extra > 0 {
		m.raw = append(m.raw, m.arenaP[n*m.extra:][:m.extra:m.extra])
		copy(m.raw[n], pay)
		// The factors index the rows as they stand before this one is
		// linked in; past the rank their transform rows are zero, and
		// folding whole rows is the kernel's shape.
		rowX := m.arenaX[n*m.cols:][:m.cols:m.cols]
		clear(rowX)
		m.foldXforms(rowX, m.xform, 0, facs)
		rowX[n] = 1
		m.xform = append(m.xform, nil)
		copy(m.xform[at+1:], m.xform[at:])
		m.xform[at] = rowX
	}
	m.rows = append(m.rows, nil)
	m.pivot = append(m.pivot, 0)
	m.pivFac = append(m.pivFac, 0)
	copy(m.rows[at+1:], m.rows[at:])
	copy(m.pivot[at+1:], m.pivot[at:])
	copy(m.pivFac[at+1:], m.pivFac[at:])
	m.rows[at] = rowC
	m.pivot[at] = p
	m.pivFac[at] = m.f.Neg(m.f.Inv(rowC[p]))
}

// WouldHelp reports whether the given coefficient vector (length Cols) is
// linearly independent of the stored rows, without modifying the matrix or
// the input — reduction happens in reusable scratch, so the query neither
// allocates nor takes a defensive copy. This is the helpful-message test
// of Definition 3.
func (m *RankMatrix) WouldHelp(coeffs []gf.Elem) bool {
	if len(coeffs) != m.cols {
		panic("linalg: coefficient width mismatch")
	}
	if m.Full() {
		return false
	}
	m.ensureScratch()
	copy(m.scratchC, coeffs)
	return m.reduce(m.scratchC, nil) >= 0
}

// RandomCombinationInto fills coeffs (length Cols) and pay (length Extra;
// nil when extra == 0) with a uniformly random combination of the stored
// rows — exactly the message an algebraic-gossip node transmits —
// reusing the caller's buffers: the zero-allocation emit path. It
// reports false without drawing randomness when the matrix is empty. It
// only reads the matrix. Its draws and its bytes are RandomFactorsInto's
// then CombineInto's (the coefficients alone on a rank-only matrix),
// taken a block of rows at a time with the factors on its own stack. rng
// must be a core.NewRand stream: on any other source it panics
// (core.Generator) before writing either buffer.
func (m *RankMatrix) RandomCombinationInto(rng *rand.Rand, coeffs []gf.Elem, pay []byte) bool {
	if len(m.rows) == 0 {
		return false
	}
	m.checkWidths(coeffs, pay)
	g := core.Generator(rng)
	clear(coeffs)
	if m.extra == 0 {
		var block [emitBlock]gf.Elem
		for lo := 0; lo < len(m.rows); lo += emitBlock {
			facs := block[:min(emitBlock, len(m.rows)-lo)]
			m.drawFactors(g, rng, facs)
			m.addMulRows(lo, facs, coeffs)
		}
		return true
	}
	clear(pay)
	var block, fold [payBlock]gf.Elem
	for lo := 0; lo < len(m.rows); lo += payBlock {
		facs := block[:min(payBlock, len(m.rows)-lo)]
		m.drawFactors(g, rng, facs)
		m.addMulRows(lo, facs, coeffs)
		m.addMulPayloads(lo, facs, pay, fold[:])
	}
	return true
}

// RandomFactorsInto is the first half of a random combination: it draws
// one uniform factor per stored row — the only randomness a combination
// consumes — into facs, the caller's buffer, which needs room for Rank()
// of them (Cols always suffices), and returns facs[:Rank()] for
// CombineInto to build the coefficients and the payload from. It reports
// false, drawing nothing, when the matrix is empty. It only reads the
// matrix.
func (m *RankMatrix) RandomFactorsInto(rng *rand.Rand, facs []gf.Elem) ([]gf.Elem, bool) {
	if len(m.rows) == 0 {
		return nil, false
	}
	if len(facs) < len(m.rows) {
		panic("linalg: factor buffer shorter than the rank")
	}
	facs = facs[:len(m.rows)]
	m.drawFactors(core.Generator(rng), rng, facs)
	return facs, true
}

// drawFactors fills facs with uniform field elements, gf.Rand's draws
// from rng, whose generator is g.
func (m *RankMatrix) drawFactors(g *core.PCG, rng *rand.Rand, facs []gf.Elem) {
	if f := m.f2m; f != nil {
		// One masked Uint64 per factor is exactly gf.Rand's IntN for a
		// power-of-two order (the identity SlicedMatrix relies on too),
		// drawn through the generator inlined, or the same draws eight at
		// a time on the gfni512 tier.
		mask := uint64(f.Order() - 1)
		if drawsInBlocks(len(facs)) {
			g.DrawBytes(gf.AsBytes(facs), byte(mask))
			return
		}
		for i := range facs {
			facs[i] = gf.Elem(g.Uint64() & mask)
		}
		return
	}
	for i := range facs {
		facs[i] = gf.Rand(m.f, rng)
	}
}

// CombineInto is the second half of a random combination over a matrix
// that carries payloads: it overwrites coeffs (length Cols) with
// Σ facs[i]·(stored coefficient row i) and pay (length Extra) with
// Σ facs[i]·(payload of stored row i), facs being what RandomFactorsInto
// drew. It only reads the matrix and facs. The halves need not be
// adjacent — a round-based caller draws every packet of a round first and
// builds them afterwards, sender by sender — but the factors index the
// stored rows, so no row may be inserted in between: a factor count that
// is not the current rank panics.
func (m *RankMatrix) CombineInto(facs, coeffs []gf.Elem, pay []byte) {
	if len(facs) != len(m.rows) {
		panic("linalg: factor count does not match the rank (row inserted between the halves of a combination?)")
	}
	if len(coeffs) != m.cols {
		panic("linalg: coefficient width mismatch")
	}
	if m.extra == 0 || len(pay) != m.extra {
		panic("linalg: payload width mismatch")
	}
	clear(coeffs)
	clear(pay)
	m.addMulRows(0, facs, coeffs)
	var fold [payBlock]gf.Elem
	m.addMulPayloads(0, facs, pay, fold[:])
}

// addMulRows adds Σ facs[i]·(stored row lo+i) to coeffs, through the
// fused kernel over GF(2^m).
func (m *RankMatrix) addMulRows(lo int, facs, coeffs []gf.Elem) {
	hi := lo + len(facs)
	if f := m.f2m; f != nil {
		f.AddMulSlices(gf.AsBytes(coeffs), gf.AsByteRows(m.rows[lo:hi]), facs)
		return
	}
	for i, c := range facs {
		m.f.AXPY(coeffs, m.rows[lo+i], c)
	}
}

// addMulPayloads adds Σ facs[i]·(payload of stored row lo+i) to pay
// without forming those payloads: it folds the factors through the
// transform rows into factors of the raw rows, len(fold) raw rows at a
// time into fold (the caller's stack), and combines each raw row once
// with its factor.
func (m *RankMatrix) addMulPayloads(lo int, facs []gf.Elem, pay []byte, fold []gf.Elem) {
	xform := m.xform[lo : lo+len(facs)]
	for j := 0; j < len(m.raw); j += len(fold) {
		// The fold runs over whole rows, as far as the block allows, for
		// the kernel's sake: past the rank a transform row is zero.
		cs := fold[:min(len(fold), m.cols-j)]
		clear(cs)
		m.foldXforms(cs, xform, j, facs)
		n := min(len(cs), len(m.raw)-j)
		m.addMulRaw(pay, m.raw[j:j+n], cs[:n])
	}
}

// Solve performs full back-substitution (RREF) and returns the decoded
// payloads: a cols x extra byte matrix whose i-th row is the payload of
// unknown i. It returns ErrNotFullRank when Rank() < Cols. The stored
// coefficient and transform rows are reduced in place (which preserves
// the row space and what each row stands for, so further Adds and emits
// remain correct); the decoded payloads are then the only payload bytes
// it writes, each a combination of the raw rows.
func (m *RankMatrix) Solve() ([][]byte, error) {
	if m.extra == 0 {
		return nil, errors.New("linalg: RankMatrix has no payload to solve for")
	}
	if !m.Full() {
		return nil, ErrNotFullRank
	}
	f := m.f
	// Normalize pivots to 1 and eliminate above, bottom-up. With full rank,
	// pivot[i] == i for all i.
	for i := m.cols - 1; i >= 0; i-- {
		row, x := m.rows[i], m.xform[i]
		p := m.pivot[i]
		if c := row[p]; c != 1 {
			inv := f.Inv(c)
			f.Scale(row, inv)
			f.Scale(x, inv)
			m.pivFac[i] = f.Neg(1) // pivot normalized; keep the cache honest
		}
		for j := 0; j < i; j++ {
			above := m.rows[j]
			if c := above[p]; c != 0 {
				nc := f.Neg(c)
				f.AXPY(above, row, nc)
				f.AXPY(m.xform[j], x, nc)
			}
		}
	}
	out := make([][]byte, m.cols)
	for i := range out {
		out[i] = make([]byte, m.extra)
		m.PayloadInto(i, out[i])
	}
	return out, nil
}
