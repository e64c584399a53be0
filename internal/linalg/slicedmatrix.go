package linalg

import (
	"errors"
	"math/bits"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// SlicedVec is a bit-sliced row over GF(2^m): m bit-planes of packed
// 64-bit words, plane-major (see gf/sliced.go for the layout). The
// coefficient part of a k-symbol row occupies m * gf.SlicedWords(k)
// words; plane j is v[j*words : (j+1)*words]. A payload row is the same
// layout over its r symbols.
type SlicedVec []uint64

// IsZero reports whether every word (hence every symbol) is zero.
func (v SlicedVec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// SlicedMatrix maintains rows over GF(2^m), m > 1, in row-echelon form
// using the bit-sliced layout, optionally carrying a payload row per
// coefficient row — the GF(2^m) counterpart of BitMatrix. Eliminating
// a whole coefficient row is at most m² word-wise plane XORs through the
// field's AddMulSliced kernel instead of one table gather per symbol, and
// the pivot search ORs the m planes instead of scanning k bytes. Payload
// rows go through the same plane kernels.
//
// Memory behavior mirrors BitMatrix: surviving rows live in a
// matrix-owned single-block arena (at most cols rows can ever be
// retained), and elimination scratch is reused across calls, so the
// steady-state Add/AddOwned/WouldHelp path performs no allocations and
// never retains caller memory, and Reset keeps all of it.
//
// Determinism contract: rows are stored exactly as the generic
// RankMatrix stores them (reduced against earlier pivots, pivot element
// NOT normalized), reduction applies the same factor -c/pivot in the
// same pivot order, and RandomCombinationInto draws one gf.Rand per
// stored row — so the sliced and generic backends hold identical row
// values and consume protocol randomness identically. Backend selection
// never moves a fixed-seed trajectory.
//
// The zero value is not usable; construct with NewSlicedMatrix.
type SlicedMatrix struct {
	f        *gf.GF2m
	cols     int
	extra    int // payload symbols per row (byte-encoded width)
	words    int // words per coefficient plane
	payWords int // 64-symbol blocks per payload row
	stride   int // m * words: coefficient row length in words
	payStr   int // m * payWords: payload row length in words

	rows   []SlicedVec
	pay    []SlicedVec
	pivot  []int
	pivLog []uint16 // log of -1/pivot-element, cached at insert time

	// tabStride enables the precomputed-table kernel: stored rows are the
	// source of every multiply-add in reduce and emit, so their subset-XOR
	// tables are built once at insert time instead of on every call.
	// Bounded to modest row widths so table memory stays O(cols * k) words.
	tabStride int

	// The arenas hold the n-th row stored (and its subset tables) at
	// offset n times the row's width: insertion-ordered, and a row's
	// storage follows from the rank alone.
	arenaC   []uint64 // coefficient arena
	arenaP   []uint64 // payload arena
	arenaT   []uint64 // subset-table arena
	pivPos   []int32  // insertion (arena) index -> current pivot position
	ord      []int32  // pivot position -> arena index (inverse of pivPos)
	loIns    []int32  // arena indices of rows with pivot < 64 (words == 2)
	hiIns    []int32  // arena indices of rows with pivot >= 64 (words == 2)
	scratchC SlicedVec
	scratchP SlicedVec
	scratchF []gf.Elem // per-row reduce factors, pivot-ordered
	scratchA []gf.Elem // arena-ordered scatter of scratchF for streaming
	order    int       // cached field order for the emit draw loop
}

// tabMaxWords is the widest plane, in words, that gets subset tables: a
// tabbed matrix has at most 64·tabMaxWords columns, so its emit keeps one
// row's draws on its own stack.
const tabMaxWords = 4

// NewSlicedMatrix returns an empty bit-sliced matrix over f with cols
// coefficient columns and extra payload symbols per row.
func NewSlicedMatrix(f *gf.GF2m, cols, extra int) *SlicedMatrix {
	if cols <= 0 {
		panic("linalg: cols must be positive")
	}
	if extra < 0 {
		panic("linalg: extra must be non-negative")
	}
	words := gf.SlicedWords(cols)
	payWords := gf.SlicedWords(extra)
	m := &SlicedMatrix{
		f: f, cols: cols, extra: extra,
		words: words, payWords: payWords,
		stride: f.M() * words, payStr: f.M() * payWords,
		order: f.Order(),
	}
	// Precomputed tables cost 2-4x the row itself; cap them at 4 words per
	// plane (k <= 256) so a node never commits more than cols KiB.
	if ts := f.SlicedTabWords(words); ts > 0 && words <= tabMaxWords {
		m.tabStride = ts
	}
	return m
}

// Field returns the matrix's field.
func (m *SlicedMatrix) Field() *gf.GF2m { return m.f }

// Words returns the number of words per coefficient plane.
func (m *SlicedMatrix) Words() int { return m.words }

// Stride returns the coefficient row length in words (m * Words).
func (m *SlicedMatrix) Stride() int { return m.stride }

// PayStride returns the payload row length in words (0 when extra == 0).
func (m *SlicedMatrix) PayStride() int { return m.payStr }

// Rank returns the number of independent rows stored.
func (m *SlicedMatrix) Rank() int { return len(m.rows) }

// Full reports whether rank equals cols.
func (m *SlicedMatrix) Full() bool { return len(m.rows) == m.cols }

// Row returns the i-th stored echelon row. The returned slice aliases
// internal storage and must not be modified.
func (m *SlicedMatrix) Row(i int) SlicedVec { return m.rows[i] }

// Payload returns the augmented payload row of the i-th stored echelon
// row, in the codec's layout (nil when extra == 0). Aliases internal
// storage; must not be modified.
func (m *SlicedMatrix) Payload(i int) SlicedVec {
	if m.extra == 0 {
		return nil
	}
	return m.pay[i]
}

// lowestNonzero returns the index of the lowest nonzero symbol of a
// coefficient row, or -1 — the sliced pivot search: OR the m planes
// word-wise and take the lowest set bit.
func (m *SlicedMatrix) lowestNonzero(row SlicedVec) int {
	words := m.words
	for w := 0; w < words; w++ {
		var or uint64
		for j := w; j < len(row); j += words {
			or |= row[j]
		}
		if or != 0 {
			return w*64 + bits.TrailingZeros64(or)
		}
	}
	return -1
}

// reduce eliminates (row, pay) in place against the echelon rows and
// returns the pivot column, or -1 if the row reduced to zero. A nil pay
// skips payload elimination (coefficient-only queries).
func (m *SlicedMatrix) reduce(row, pay SlicedVec) int {
	f := m.f
	if m.tabStride > 0 {
		m.reduceTabbed(row, pay != nil)
		if pay != nil {
			for i, c := range m.scratchF[:len(m.pivot)] {
				if c != 0 {
					f.AddMulSliced(pay, m.pay[i], m.payWords, c)
				}
			}
		}
		return m.lowestNonzero(row)
	}
	for i, p := range m.pivot {
		c := f.SlicedElem(row, m.words, p)
		if c == 0 {
			continue
		}
		factor := f.MulLog(c, m.pivLog[i])
		f.AddMulSliced(row, m.rows[i], m.words, factor)
		if pay != nil {
			f.AddMulSliced(pay, m.pay[i], m.payWords, factor)
		}
	}
	return m.lowestNonzero(row)
}

// reduceTabbed is the blocked coefficient elimination: it walks the row
// one 64-column word-block at a time, holding the block's m plane words
// in registers, and records each stored row's elimination factor in
// scratchF (0 = not applied) for the caller's payload pass. Eliminations
// are additive, so a stored row's contribution to later blocks is applied
// when those blocks are processed — in arena (insertion) order, so the
// table traffic streams sequentially — and echelon rows whose pivot lies
// in a later block have all-zero words in earlier blocks, so they are
// (correctly) never applied there. Only the factor *determination* for
// pivots inside the current block is pivot-sequential. Per row visit the
// work is one packed-selector load plus the subset-table lookups, with no
// destination memory traffic.
func (m *SlicedMatrix) reduceTabbed(row SlicedVec, needFactors bool) {
	f := m.f
	if m.scratchF == nil {
		m.scratchF = make([]gf.Elem, m.cols)
		m.scratchA = make([]gf.Elem, m.cols)
	}
	factors := m.scratchF[:len(m.pivot)]
	words := m.words
	if words == 2 && f.M() == 8 {
		m.reduceTabbed2x8(row, factors, needFactors)
		return
	}
	switch f.M() {
	case 8:
		idx := 0
		step := 32 * words
		for w := 0; w < words; w++ {
			r0, r1 := row[w], row[words+w]
			r2, r3 := row[2*words+w], row[3*words+w]
			r4, r5 := row[4*words+w], row[5*words+w]
			r6, r7 := row[6*words+w], row[7*words+w]
			if idx > 0 {
				// Contributions of rows whose pivot was handled in an
				// earlier block, streamed in arena order.
				fa := m.scratchA[:len(m.pivPos)]
				for j, pp := range m.pivPos {
					if int(pp) < idx {
						fa[j] = factors[pp]
					} else {
						fa[j] = 0
					}
				}
				base := m.arenaT
				pos := 32 * w
				for _, c := range fa {
					if c == 0 {
						pos += step
						continue
					}
					sel := f.MulRowsPacked(c)
					t := base[pos : pos+32]
					pos += step
					ta := (*[16]uint64)(t[:16])
					tb := (*[16]uint64)(t[16:32])
					r0 ^= ta[sel&15] ^ tb[(sel>>4)&15]
					r1 ^= ta[(sel>>8)&15] ^ tb[(sel>>12)&15]
					r2 ^= ta[(sel>>16)&15] ^ tb[(sel>>20)&15]
					r3 ^= ta[(sel>>24)&15] ^ tb[(sel>>28)&15]
					r4 ^= ta[(sel>>32)&15] ^ tb[(sel>>36)&15]
					r5 ^= ta[(sel>>40)&15] ^ tb[(sel>>44)&15]
					r6 ^= ta[(sel>>48)&15] ^ tb[(sel>>52)&15]
					r7 ^= ta[(sel>>56)&15] ^ tb[sel>>60]
				}
			}
			// Pivots living in this block: extract straight from the
			// registers, eliminate, record the factor.
			limit := 64 * (w + 1)
			for ; idx < len(m.pivot) && m.pivot[idx] < limit; idx++ {
				b := uint(m.pivot[idx]) & 63
				c := gf.Elem((r0>>b)&1 |
					((r1>>b)&1)<<1 |
					((r2>>b)&1)<<2 |
					((r3>>b)&1)<<3 |
					((r4>>b)&1)<<4 |
					((r5>>b)&1)<<5 |
					((r6>>b)&1)<<6 |
					((r7>>b)&1)<<7)
				if c == 0 {
					factors[idx] = 0
					continue
				}
				fac := f.MulLog(c, m.pivLog[idx])
				factors[idx] = fac
				sel := f.MulRowsPacked(fac)
				tj := int(m.ord[idx]) * step
				t := m.arenaT[tj+32*w : tj+32*w+32]
				ta := (*[16]uint64)(t[:16])
				tb := (*[16]uint64)(t[16:32])
				r0 ^= ta[sel&15] ^ tb[(sel>>4)&15]
				r1 ^= ta[(sel>>8)&15] ^ tb[(sel>>12)&15]
				r2 ^= ta[(sel>>16)&15] ^ tb[(sel>>20)&15]
				r3 ^= ta[(sel>>24)&15] ^ tb[(sel>>28)&15]
				r4 ^= ta[(sel>>32)&15] ^ tb[(sel>>36)&15]
				r5 ^= ta[(sel>>40)&15] ^ tb[(sel>>44)&15]
				r6 ^= ta[(sel>>48)&15] ^ tb[(sel>>52)&15]
				r7 ^= ta[(sel>>56)&15] ^ tb[sel>>60]
			}
			row[w], row[words+w] = r0, r1
			row[2*words+w], row[3*words+w] = r2, r3
			row[4*words+w], row[5*words+w] = r4, r5
			row[6*words+w], row[7*words+w] = r6, r7
		}
	case 4:
		idx := 0
		step := 16 * words
		for w := 0; w < words; w++ {
			r0, r1 := row[w], row[words+w]
			r2, r3 := row[2*words+w], row[3*words+w]
			if idx > 0 {
				fa := m.scratchA[:len(m.pivPos)]
				for j, pp := range m.pivPos {
					if int(pp) < idx {
						fa[j] = factors[pp]
					} else {
						fa[j] = 0
					}
				}
				base := m.arenaT
				pos := 16 * w
				for _, c := range fa {
					if c == 0 {
						pos += step
						continue
					}
					sel := f.MulRowsPacked(c)
					ta := (*[16]uint64)(base[pos : pos+16])
					pos += step
					r0 ^= ta[sel&15]
					r1 ^= ta[(sel>>8)&15]
					r2 ^= ta[(sel>>16)&15]
					r3 ^= ta[(sel>>24)&15]
				}
			}
			limit := 64 * (w + 1)
			for ; idx < len(m.pivot) && m.pivot[idx] < limit; idx++ {
				b := uint(m.pivot[idx]) & 63
				c := gf.Elem((r0>>b)&1 |
					((r1>>b)&1)<<1 |
					((r2>>b)&1)<<2 |
					((r3>>b)&1)<<3)
				if c == 0 {
					factors[idx] = 0
					continue
				}
				fac := f.MulLog(c, m.pivLog[idx])
				factors[idx] = fac
				sel := f.MulRowsPacked(fac)
				tj := int(m.ord[idx]) * step
				ta := (*[16]uint64)(m.arenaT[tj+16*w : tj+16*w+16])
				r0 ^= ta[sel&15]
				r1 ^= ta[(sel>>8)&15]
				r2 ^= ta[(sel>>16)&15]
				r3 ^= ta[(sel>>24)&15]
			}
			row[w], row[words+w] = r0, r1
			row[2*words+w], row[3*words+w] = r2, r3
		}
	default:
		// tabStride is only enabled for m ∈ {4, 8}.
		panic("linalg: blocked reduce without a table kernel")
	}
}

// allocRow returns the slots of the next row stored — coefficient row,
// payload row when extra > 0, subset tables when tabbed — allocating the
// arena in one block on first use: at most cols rows can ever be
// retained, so retained rows stay contiguous in allocation-order memory
// for the reduce loop.
func (m *SlicedMatrix) allocRow() (SlicedVec, SlicedVec, SlicedVec) {
	if m.arenaC == nil {
		// One block for everything: coefficient rows, payload rows, and
		// subset tables, one section each.
		block := make([]uint64, m.cols*(m.stride+m.payStr+m.tabStride))
		m.arenaC = block[:m.cols*m.stride]
		m.arenaP = block[m.cols*m.stride : m.cols*(m.stride+m.payStr)]
		m.arenaT = block[m.cols*(m.stride+m.payStr):]
	}
	n := len(m.rows)
	row := SlicedVec(m.arenaC[n*m.stride:][:m.stride:m.stride])
	var pay SlicedVec
	if m.payStr > 0 {
		pay = SlicedVec(m.arenaP[n*m.payStr:][:m.payStr:m.payStr])
	}
	var tab SlicedVec
	if m.tabStride > 0 {
		tab = SlicedVec(m.arenaT[n*m.tabStride:][:m.tabStride:m.tabStride])
	}
	return row, pay, tab
}

// Reset empties the matrix for reuse, keeping its arena — the
// subset-table section included, whose n-th slot the next n-th row's
// tables overwrite — and its scratch (see RankMatrix.Reset).
func (m *SlicedMatrix) Reset() {
	m.rows, m.pay, m.pivot, m.pivLog = m.rows[:0], m.pay[:0], m.pivot[:0], m.pivLog[:0]
	m.pivPos, m.ord, m.loIns, m.hiIns = m.pivPos[:0], m.ord[:0], m.loIns[:0], m.hiIns[:0]
	poison(m.arenaC, m.arenaP, m.arenaT, []uint64(m.scratchC), []uint64(m.scratchP))
	poison(m.scratchF, m.scratchA)
}

// insert copies an already-reduced row with pivot column p into the
// arena, keeping pivots strictly increasing, and caches the pivot
// element's negated inverse for the reduce loop.
func (m *SlicedMatrix) insert(row, pay SlicedVec, p int) {
	if m.rows == nil {
		m.rows = make([]SlicedVec, 0, m.cols)
		m.pivot = make([]int, 0, m.cols)
		m.pivLog = make([]uint16, 0, m.cols)
		if m.extra > 0 {
			m.pay = make([]SlicedVec, 0, m.cols)
		}
		if m.tabStride > 0 {
			m.pivPos = make([]int32, 0, m.cols)
			m.ord = make([]int32, 0, m.cols)
			if m.words == 2 {
				m.loIns = make([]int32, 0, m.cols)
				m.hiIns = make([]int32, 0, m.cols)
			}
		}
	}
	rowC, rowP, rowT := m.allocRow()
	copy(rowC, row)
	at := len(m.rows)
	for i, q := range m.pivot {
		if q > p {
			at = i
			break
		}
	}
	m.rows = append(m.rows, nil)
	m.pivot = append(m.pivot, 0)
	m.pivLog = append(m.pivLog, 0)
	copy(m.rows[at+1:], m.rows[at:])
	copy(m.pivot[at+1:], m.pivot[at:])
	copy(m.pivLog[at+1:], m.pivLog[at:])
	m.rows[at] = rowC
	m.pivot[at] = p
	m.pivLog[at] = m.f.Log(m.f.Neg(m.f.Inv(m.f.SlicedElem(rowC, m.words, p))))
	if m.extra > 0 {
		copy(rowP, pay)
		m.pay = append(m.pay, nil)
		copy(m.pay[at+1:], m.pay[at:])
		m.pay[at] = rowP
	}
	if m.tabStride > 0 {
		m.f.BuildSlicedTables(rowT, rowC, m.words)
		// The arena stays insertion-ordered; record where this row landed
		// in pivot order so the streaming passes can look factors up.
		for j := range m.pivPos {
			if m.pivPos[j] >= int32(at) {
				m.pivPos[j]++
			}
		}
		newJ := int32(len(m.pivPos))
		m.pivPos = append(m.pivPos, int32(at))
		m.ord = append(m.ord, 0)
		copy(m.ord[at+1:], m.ord[at:])
		m.ord[at] = newJ
		// For two-block rows, partition arena indices by pivot block: a row
		// whose pivot lies in the second block has all-zero first-block
		// planes, so the emit pass over block 0 can skip it outright.
		if m.words == 2 {
			if p < 64 {
				m.loIns = append(m.loIns, newJ)
			} else {
				m.hiIns = append(m.hiIns, newJ)
			}
		}
	}
}

// checkWidths panics on a caller-side width bug (the network-facing
// screens live in rlnc).
func (m *SlicedMatrix) checkWidths(row, pay SlicedVec) {
	if len(row) != m.stride {
		panic("linalg: sliced coefficient width mismatch")
	}
	if len(pay) != m.payStr {
		panic("linalg: sliced payload width mismatch")
	}
}

// Add inserts the given sliced row — plus a payload row when extra > 0
// (nil otherwise) — if it is linearly independent of the stored rows,
// reporting whether the rank increased. The inputs are neither modified
// nor retained (reduction happens in reusable scratch).
func (m *SlicedMatrix) Add(row, pay SlicedVec) bool {
	m.checkWidths(row, pay)
	if m.Full() {
		return false // the row space is everything; nothing can help
	}
	m.ensureScratch()
	copy(m.scratchC, row)
	var workP SlicedVec
	if m.payStr > 0 {
		copy(m.scratchP, pay)
		workP = m.scratchP
	}
	p := m.reduce(m.scratchC, workP)
	if p < 0 {
		return false
	}
	m.insert(m.scratchC, workP, p)
	return true
}

// AddOwned is the move-semantics insert: it reduces directly in the
// caller's buffers (clobbering them), then copies the surviving row into
// the matrix arena. The caller must treat the contents as consumed but
// keeps the buffers themselves — the packet-pool recycling contract of
// the coded hot path.
func (m *SlicedMatrix) AddOwned(row, pay SlicedVec) bool {
	m.checkWidths(row, pay)
	if m.Full() {
		return false
	}
	var workP SlicedVec
	if m.payStr > 0 {
		workP = pay
	}
	p := m.reduce(row, workP)
	if p < 0 {
		return false
	}
	m.insert(row, workP, p)
	return true
}

// ensureScratch sizes the reusable reduce buffers once.
func (m *SlicedMatrix) ensureScratch() {
	if m.scratchC == nil {
		m.scratchC = make(SlicedVec, m.stride)
	}
	if m.payStr > 0 && m.scratchP == nil {
		m.scratchP = make(SlicedVec, m.payStr)
	}
}

// WouldHelp reports whether the row is independent of the stored rows
// without modifying the matrix or the input — reduction happens in
// reusable scratch: no allocation, no defensive copy for the caller.
func (m *SlicedMatrix) WouldHelp(row SlicedVec) bool {
	if len(row) != m.stride {
		panic("linalg: sliced coefficient width mismatch")
	}
	if m.Full() {
		return false
	}
	m.ensureScratch()
	copy(m.scratchC, row)
	return m.reduce(m.scratchC, nil) >= 0
}

// RandomCombinationInto fills out (length Stride) and pay (length
// PayStride; nil when extra == 0) with a uniformly random combination of
// the stored rows, reusing the caller's buffers — the zero-allocation
// emit path. It reports false without drawing randomness when the matrix
// is empty. The random stream consumption — one gf.Rand per stored row —
// is identical to the generic backend's draw, so swapping backends
// preserves fixed-seed trajectories. It only reads the matrix, so several
// goroutines may emit from one matrix at once, each into buffers of its
// own.
func (m *SlicedMatrix) RandomCombinationInto(rng *rand.Rand, out, pay SlicedVec) bool {
	if len(m.rows) == 0 {
		return false
	}
	m.checkWidths(out, pay)
	if m.payStr == 0 {
		pay = nil
	}
	if m.tabStride == 0 {
		clear(out) // the fallback path accumulates; the tabbed one overwrites
	}
	clear(pay)
	// The draw is exactly gf.Rand's rng.IntN(order): for the power-of-two
	// orders of GF(2^m), rand/v2's IntN is one Uint64 masked to the low
	// bits — the same identity the bit backend's Uint64()&1 draw relies
	// on, pinned by the sliced-vs-generic equivalence tests. It is taken
	// from g, inlined, on a core.NewRand stream and from rng on any other
	// source (see BitMatrix.RandomCombinationInto).
	g, mask := core.Generator(rng), uint64(m.order-1)
	if m.tabStride > 0 {
		// One gf.Rand-equivalent draw per stored row in pivot order (the
		// stream contract), stored straight into arena order through the
		// inverse permutation so the accumulation pass streams the table
		// arena sequentially. The draws live on this frame, not in the
		// matrix.
		var draws [64 * tabMaxWords]gf.Elem
		da := draws[:len(m.rows)]
		if g != nil {
			for _, o := range m.ord {
				da[o] = gf.Elem(g.Uint64() & mask)
			}
		} else {
			for _, o := range m.ord {
				da[o] = gf.Elem(rng.Uint64() & mask)
			}
		}
		m.combineTabbed(out, da)
		if pay != nil {
			for j, c := range da {
				if c != 0 {
					m.f.AddMulSliced(pay, m.pay[m.pivPos[j]], m.payWords, c)
				}
			}
		}
		return true
	}
	if g != nil {
		for i := range m.rows {
			m.addMulRowInto(i, out, pay, gf.Elem(g.Uint64()&mask))
		}
	} else {
		for i := range m.rows {
			m.addMulRowInto(i, out, pay, gf.Elem(rng.Uint64()&mask))
		}
	}
	return true
}

// addMulRowInto adds c times stored row i, and its payload unless pay is
// nil, into the combination being built.
func (m *SlicedMatrix) addMulRowInto(i int, out, pay SlicedVec, c gf.Elem) {
	m.f.AddMulSliced(out, m.rows[i], m.words, c)
	if pay != nil {
		m.f.AddMulSliced(pay, m.pay[i], m.payWords, c)
	}
}

// combineTabbed accumulates out = sum da[j] * rows[arena j] block-wise
// with the output planes held in registers — the emit-side counterpart
// of reduceTabbed. da holds the per-row draws in arena order, so the
// table arena streams strictly sequentially.
func (m *SlicedMatrix) combineTabbed(out SlicedVec, da []gf.Elem) {
	f := m.f
	base := m.arenaT
	words := m.words
	if words == 2 && f.M() == 8 {
		m.combineTabbed2x8(out, da)
		return
	}
	switch f.M() {
	case 8:
		step := 32 * words
		for w := 0; w < words; w++ {
			var r0, r1, r2, r3, r4, r5, r6, r7 uint64
			pos := 32 * w
			for _, c := range da {
				if c == 0 {
					pos += step
					continue
				}
				sel := f.MulRowsPacked(c)
				t := base[pos : pos+32]
				pos += step
				ta := (*[16]uint64)(t[:16])
				tb := (*[16]uint64)(t[16:32])
				r0 ^= ta[sel&15] ^ tb[(sel>>4)&15]
				r1 ^= ta[(sel>>8)&15] ^ tb[(sel>>12)&15]
				r2 ^= ta[(sel>>16)&15] ^ tb[(sel>>20)&15]
				r3 ^= ta[(sel>>24)&15] ^ tb[(sel>>28)&15]
				r4 ^= ta[(sel>>32)&15] ^ tb[(sel>>36)&15]
				r5 ^= ta[(sel>>40)&15] ^ tb[(sel>>44)&15]
				r6 ^= ta[(sel>>48)&15] ^ tb[(sel>>52)&15]
				r7 ^= ta[(sel>>56)&15] ^ tb[sel>>60]
			}
			out[w], out[words+w] = r0, r1
			out[2*words+w], out[3*words+w] = r2, r3
			out[4*words+w], out[5*words+w] = r4, r5
			out[6*words+w], out[7*words+w] = r6, r7
		}
	case 4:
		step := 16 * words
		for w := 0; w < words; w++ {
			var r0, r1, r2, r3 uint64
			if words == 2 && w == 0 {
				// Only rows with a first-block pivot have content here.
				for _, j := range m.loIns {
					c := da[j]
					if c == 0 {
						continue
					}
					sel := f.MulRowsPacked(c)
					ta := (*[16]uint64)(base[int(j)*step : int(j)*step+16])
					r0 ^= ta[sel&15]
					r1 ^= ta[(sel>>8)&15]
					r2 ^= ta[(sel>>16)&15]
					r3 ^= ta[(sel>>24)&15]
				}
			} else {
				pos := 16 * w
				for _, c := range da {
					if c == 0 {
						pos += step
						continue
					}
					sel := f.MulRowsPacked(c)
					ta := (*[16]uint64)(base[pos : pos+16])
					pos += step
					r0 ^= ta[sel&15]
					r1 ^= ta[(sel>>8)&15]
					r2 ^= ta[(sel>>16)&15]
					r3 ^= ta[(sel>>24)&15]
				}
			}
			out[w], out[words+w] = r0, r1
			out[2*words+w], out[3*words+w] = r2, r3
		}
	default:
		panic("linalg: blocked combine without a table kernel")
	}
}

// reduceTabbed2x8 is the fused words==2, m==8 elimination (64 < k <= 128
// over GF(256), the macro-benchmark configuration): one pivot-ordered
// pass over the stored rows with all 16 row words held in locals, shared
// selector extraction for both word-blocks, and each row's 512-byte
// table chunk read contiguously. Rows whose pivot lies in the second
// block have all-zero first-block planes and skip that half entirely.
func (m *SlicedMatrix) reduceTabbed2x8(row SlicedVec, factors []gf.Elem, needFactors bool) {
	f := m.f
	a0, a1, a2, a3 := row[0], row[2], row[4], row[6]
	a4, a5, a6, a7 := row[8], row[10], row[12], row[14]
	b0, b1, b2, b3 := row[1], row[3], row[5], row[7]
	b4, b5, b6, b7 := row[9], row[11], row[13], row[15]
	for idx, p := range m.pivot {
		var c gf.Elem
		if p < 64 {
			bb := uint(p)
			c = gf.Elem((a0>>bb)&1 |
				((a1>>bb)&1)<<1 |
				((a2>>bb)&1)<<2 |
				((a3>>bb)&1)<<3 |
				((a4>>bb)&1)<<4 |
				((a5>>bb)&1)<<5 |
				((a6>>bb)&1)<<6 |
				((a7>>bb)&1)<<7)
		} else {
			bb := uint(p) & 63
			c = gf.Elem((b0>>bb)&1 |
				((b1>>bb)&1)<<1 |
				((b2>>bb)&1)<<2 |
				((b3>>bb)&1)<<3 |
				((b4>>bb)&1)<<4 |
				((b5>>bb)&1)<<5 |
				((b6>>bb)&1)<<6 |
				((b7>>bb)&1)<<7)
		}
		if c == 0 {
			if needFactors {
				factors[idx] = 0
			}
			continue
		}
		lg := m.pivLog[idx]
		sel := f.MulRowsPackedLog(c, lg)
		if needFactors {
			// The explicit factor is only consumed by the caller's payload
			// pass; rank-only reductions skip the extra log-domain lookup.
			factors[idx] = f.MulLog(c, lg)
		}
		t := (*[64]uint64)(m.arenaT[int(m.ord[idx])*64 : int(m.ord[idx])*64+64 : int(m.ord[idx])*64+64])
		if p < 64 {
			x, y := sel&15, (sel>>4)&15
			a0 ^= t[x] ^ t[16+y]
			b0 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>8)&15, (sel>>12)&15
			a1 ^= t[x] ^ t[16+y]
			b1 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>16)&15, (sel>>20)&15
			a2 ^= t[x] ^ t[16+y]
			b2 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>24)&15, (sel>>28)&15
			a3 ^= t[x] ^ t[16+y]
			b3 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>32)&15, (sel>>36)&15
			a4 ^= t[x] ^ t[16+y]
			b4 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>40)&15, (sel>>44)&15
			a5 ^= t[x] ^ t[16+y]
			b5 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>48)&15, (sel>>52)&15
			a6 ^= t[x] ^ t[16+y]
			b6 ^= t[32+x] ^ t[48+y]
			x, y = (sel>>56)&15, sel>>60
			a7 ^= t[x] ^ t[16+y]
			b7 ^= t[32+x] ^ t[48+y]
		} else {
			// First-block planes of this row are zero: only the second
			// block carries content (ta1 = t[32:], tb1 = t[48:]).
			b0 ^= t[32+sel&15] ^ t[48+(sel>>4)&15]
			b1 ^= t[32+(sel>>8)&15] ^ t[48+(sel>>12)&15]
			b2 ^= t[32+(sel>>16)&15] ^ t[48+(sel>>20)&15]
			b3 ^= t[32+(sel>>24)&15] ^ t[48+(sel>>28)&15]
			b4 ^= t[32+(sel>>32)&15] ^ t[48+(sel>>36)&15]
			b5 ^= t[32+(sel>>40)&15] ^ t[48+(sel>>44)&15]
			b6 ^= t[32+(sel>>48)&15] ^ t[48+(sel>>52)&15]
			b7 ^= t[32+(sel>>56)&15] ^ t[48+(sel>>60)]
		}
	}
	row[0], row[2], row[4], row[6] = a0, a1, a2, a3
	row[8], row[10], row[12], row[14] = a4, a5, a6, a7
	row[1], row[3], row[5], row[7] = b0, b1, b2, b3
	row[9], row[11], row[13], row[15] = b4, b5, b6, b7
}

// combineTabbed2x8 is the fused words==2, m==8 emit accumulation: one
// arena-ordered pass, shared selector extraction, contiguous 512-byte
// table reads per row.
func (m *SlicedMatrix) combineTabbed2x8(out SlicedVec, da []gf.Elem) {
	f := m.f
	base := m.arenaT
	var a0, a1, a2, a3, a4, a5, a6, a7 uint64
	var b0, b1, b2, b3, b4, b5, b6, b7 uint64
	for _, j := range m.loIns {
		c := da[j]
		if c == 0 {
			continue
		}
		sel := f.MulRowsPacked(c)
		t := (*[64]uint64)(base[int(j)*64 : int(j)*64+64 : int(j)*64+64])
		// One chunk pointer, constant displacements: ta0 = t[0:], tb0 =
		// t[16:], ta1 = t[32:], tb1 = t[48:].
		x, y := sel&15, (sel>>4)&15
		a0 ^= t[x] ^ t[16+y]
		b0 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>8)&15, (sel>>12)&15
		a1 ^= t[x] ^ t[16+y]
		b1 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>16)&15, (sel>>20)&15
		a2 ^= t[x] ^ t[16+y]
		b2 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>24)&15, (sel>>28)&15
		a3 ^= t[x] ^ t[16+y]
		b3 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>32)&15, (sel>>36)&15
		a4 ^= t[x] ^ t[16+y]
		b4 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>40)&15, (sel>>44)&15
		a5 ^= t[x] ^ t[16+y]
		b5 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>48)&15, (sel>>52)&15
		a6 ^= t[x] ^ t[16+y]
		b6 ^= t[32+x] ^ t[48+y]
		x, y = (sel>>56)&15, sel>>60
		a7 ^= t[x] ^ t[16+y]
		b7 ^= t[32+x] ^ t[48+y]
	}
	// Rows with pivot >= 64: first-block planes are zero, only the
	// second-block half of the table chunk carries content.
	for _, j := range m.hiIns {
		c := da[j]
		if c == 0 {
			continue
		}
		sel := f.MulRowsPacked(c)
		t := (*[32]uint64)(base[int(j)*64+32 : int(j)*64+64 : int(j)*64+64])
		b0 ^= t[sel&15] ^ t[16+(sel>>4)&15]
		b1 ^= t[(sel>>8)&15] ^ t[16+(sel>>12)&15]
		b2 ^= t[(sel>>16)&15] ^ t[16+(sel>>20)&15]
		b3 ^= t[(sel>>24)&15] ^ t[16+(sel>>28)&15]
		b4 ^= t[(sel>>32)&15] ^ t[16+(sel>>36)&15]
		b5 ^= t[(sel>>40)&15] ^ t[16+(sel>>44)&15]
		b6 ^= t[(sel>>48)&15] ^ t[16+(sel>>52)&15]
		b7 ^= t[(sel>>56)&15] ^ t[16+(sel>>60)]
	}
	out[0], out[2], out[4], out[6] = a0, a1, a2, a3
	out[8], out[10], out[12], out[14] = a4, a5, a6, a7
	out[1], out[3], out[5], out[7] = b0, b1, b2, b3
	out[9], out[11], out[13], out[15] = b4, b5, b6, b7
}

// Solve performs full back-substitution and returns the decoded
// payloads: a cols x extra byte matrix whose i-th row is the
// byte-encoded payload of unknown i. It returns ErrNotFullRank when
// Rank() < Cols. The stored rows are reduced in place (which preserves
// the row space, so further Adds remain correct).
func (m *SlicedMatrix) Solve() ([][]byte, error) {
	if m.extra == 0 {
		return nil, errors.New("linalg: SlicedMatrix has no payload to solve for")
	}
	if !m.Full() {
		return nil, ErrNotFullRank
	}
	f := m.f
	// Normalize pivots to 1 and eliminate above, bottom-up. With full
	// rank, pivot[i] == i for all i.
	for i := m.cols - 1; i >= 0; i-- {
		p := m.pivot[i]
		if c := f.SlicedElem(m.rows[i], m.words, p); c != 1 {
			inv := f.Inv(c)
			f.ScaleSliced(m.rows[i], m.words, inv)
			f.ScaleSliced(m.pay[i], m.payWords, inv)
			m.pivLog[i] = f.Log(f.Neg(1)) // pivot normalized; keep the cache honest
		}
		for j := 0; j < i; j++ {
			if c := f.SlicedElem(m.rows[j], m.words, p); c != 0 {
				nc := f.Neg(c)
				f.AddMulSliced(m.rows[j], m.rows[i], m.words, nc)
				f.AddMulSliced(m.pay[j], m.pay[i], m.payWords, nc)
			}
		}
	}
	// Back-substitution rewrote the stored rows; the precomputed subset
	// tables must follow them for further multiply-adds to stay correct.
	if m.tabStride > 0 {
		for i, row := range m.rows {
			tj := int(m.ord[i]) * m.tabStride
			f.BuildSlicedTables(m.arenaT[tj:tj+m.tabStride], row, m.words)
		}
	}
	out := make([][]byte, m.cols)
	for i := range out {
		out[i] = make([]byte, m.extra)
		f.UnpackSliced(out[i], m.pay[i])
	}
	return out, nil
}
