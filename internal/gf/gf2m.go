package gf

import "fmt"

// Standard irreducible polynomials for GF(2^m), written with the leading
// x^m bit included (e.g. 0x11D = x^8 + x^4 + x^3 + x^2 + 1).
var _irreducible = map[int]uint{
	1: 0x3,   // x + 1
	2: 0x7,   // x^2 + x + 1
	3: 0xB,   // x^3 + x + 1
	4: 0x13,  // x^4 + x + 1
	5: 0x25,  // x^5 + x^2 + 1
	6: 0x43,  // x^6 + x + 1
	7: 0x89,  // x^7 + x^3 + 1
	8: 0x11D, // x^8 + x^4 + x^3 + x^2 + 1 (the Rijndael-adjacent classic)
}

// GF2m is the binary extension field GF(2^m) for 1 <= m <= 8, implemented
// with exponent/logarithm tables over a generator, so multiplication and
// inversion are two table lookups. Addition is XOR.
type GF2m struct {
	m     int
	order int
	mask  Elem
	// exp has length 2*order so products of logs index without a modulo.
	exp []Elem
	log []uint16
	inv []Elem
	// mulTab is the full q x q multiplication table, flattened; for q <= 256
	// this is at most 64 KiB and makes AXPY a pure table walk.
	mulTab []Elem
	// bulkTab holds one 256-entry lookup row per coefficient (row c maps any
	// byte s to c*(s & mask)), the unit the byte-slice kernels walk. For
	// q == 256 it is mulTab itself; smaller fields pad each row to 256
	// entries so a byte index can never be out of range.
	bulkTab []byte
	// mulPlanes holds, per scalar c, the m basis images c*x^j (zero-padded
	// to 8 entries) — the columns of the GF(2) matrix that multiplication
	// by c applies to a bit-sliced row (see sliced.go). mulRows is the
	// transposed table feeding the branchless subset-XOR kernels.
	mulPlanes [][8]byte
	mulRows   [][8]byte
	mulRowsU  []uint64
	selLog    []uint64
	// nibTab holds, per scalar c, the 32-byte split-nibble table of the
	// avx2 byte kernel: 16 bytes c*(x & mask) then 16 bytes
	// c*((x<<4) & mask), so c*s = lo[s&15] ^ hi[s>>4] for any byte s.
	nibTab []byte
	// gfniTab holds, per scalar c, the 8x8 GF(2) matrix of "multiply by
	// c" packed for VGF2P8AFFINEQB (matrix row i in qword byte 7-i).
	gfniTab []uint64
}

var _ Field = (*GF2m)(nil)

// NewGF2m constructs GF(2^m) for 1 <= m <= 8 using a standard irreducible
// polynomial.
func NewGF2m(m int) (*GF2m, error) {
	poly, ok := _irreducible[m]
	if !ok {
		return nil, fmt.Errorf("gf: no irreducible polynomial registered for m=%d", m)
	}
	order := 1 << m
	f := &GF2m{
		m:     m,
		order: order,
		mask:  Elem(order - 1),
		exp:   make([]Elem, 2*order),
		log:   make([]uint16, order),
		inv:   make([]Elem, order),
	}

	// Find a generator by trial: x itself (value 2) generates the
	// multiplicative group for all our polynomials except degenerate m=1.
	gen := uint(2)
	if m == 1 {
		gen = 1
	}
	if !f.buildTables(gen, poly) {
		// Fall back to scanning for a generator.
		found := false
		for g := uint(2); g < uint(order); g++ {
			if f.buildTables(g, poly) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("gf: no generator found for GF(2^%d) with poly %#x", m, poly)
		}
	}

	// Inverses: a^-1 = g^(q-1-log a).
	for a := 1; a < order; a++ {
		f.inv[a] = f.exp[(order-1)-int(f.log[a])]
	}

	// Full multiplication table.
	f.mulTab = make([]Elem, order*order)
	for a := 0; a < order; a++ {
		for b := 0; b < order; b++ {
			if a == 0 || b == 0 {
				continue
			}
			f.mulTab[a*order+b] = f.exp[int(f.log[a])+int(f.log[b])]
		}
	}

	// Byte-kernel rows, padded to a 256-entry stride.
	if order == 256 {
		f.bulkTab = AsBytes(f.mulTab)
	} else {
		f.bulkTab = make([]byte, order*256)
		for a := 0; a < order; a++ {
			for s := 0; s < 256; s++ {
				f.bulkTab[a*256+s] = byte(f.mulTab[a*order+(s&int(f.mask))])
			}
		}
	}
	f.buildMulPlanes()
	return f, nil
}

// buildTables fills exp/log from the candidate generator; it reports whether
// the candidate generates the full multiplicative group.
func (f *GF2m) buildTables(gen, poly uint) bool {
	order := f.order
	seen := make([]bool, order)
	x := uint(1)
	for i := 0; i < order-1; i++ {
		if x == 0 || x >= uint(order) || seen[x] {
			return false
		}
		seen[x] = true
		f.exp[i] = Elem(x)
		f.log[x] = uint16(i)
		// Multiply by gen with polynomial reduction.
		x = polyMul(x, gen, poly, f.m)
	}
	if x != 1 { // must cycle back to 1 after order-1 steps
		return false
	}
	for i := order - 1; i < 2*order; i++ {
		f.exp[i] = f.exp[(i)%(order-1)]
	}
	return true
}

// polyMul multiplies two elements of GF(2^m) by shift-and-add with reduction
// modulo poly. Used only during table construction.
func polyMul(a, b, poly uint, m int) uint {
	var acc uint
	for b > 0 {
		if b&1 == 1 {
			acc ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<uint(m)) != 0 {
			a ^= poly
		}
	}
	return acc
}

// Order returns 2^m.
func (f *GF2m) Order() int { return f.order }

// Char returns 2.
func (f *GF2m) Char() int { return 2 }

// Name returns e.g. "GF(256)".
func (f *GF2m) Name() string { return fmt.Sprintf("GF(%d)", f.order) }

// Add returns a XOR b.
func (f *GF2m) Add(a, b Elem) Elem { return (a ^ b) & f.mask }

// Sub returns a XOR b.
func (f *GF2m) Sub(a, b Elem) Elem { return (a ^ b) & f.mask }

// Neg returns a.
func (f *GF2m) Neg(a Elem) Elem { return a & f.mask }

// Mul returns a * b via the multiplication table.
func (f *GF2m) Mul(a, b Elem) Elem {
	return f.mulTab[int(a)*f.order+int(b)]
}

// Div returns a / b. It panics if b == 0.
func (f *GF2m) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero in " + f.Name())
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+(f.order-1)-int(f.log[b])]
}

// Inv returns a^-1. It panics if a == 0.
func (f *GF2m) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero in " + f.Name())
	}
	return f.inv[a]
}

// bulkRow returns coefficient c's padded 256-entry lookup row.
func (f *GF2m) bulkRow(c Elem) *[256]byte {
	return (*[256]byte)(f.bulkTab[int(c)<<8:])
}

// AddMulSlice performs dst[i] ^= c * src[i] over byte rows: a no-op for
// c == 0, a word-wise XOR for c == 1, and otherwise the table-walk
// kernel of the active tier — whole 32-byte blocks go through the asm
// kernels on the avx2/gfni tiers, with the scalar loop finishing any
// remainder, so every tier is bit-identical on every length.
//
// It panics when dst is shorter than src — on every tier, before any
// kernel runs: the asm receives bare pointers and a length, and an
// unchecked short dst would be written past its end.
func (f *GF2m) AddMulSlice(dst, src []byte, c Elem) {
	if c == 0 || len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	if c == 1 {
		xorSlice(dst, src)
		return
	}
	switch activeTier {
	case TierGFNI, TierGFNI512:
		if n := len(src) &^ 31; n > 0 {
			addMulGFNIAsm(&dst[0], &src[0], n, f.gfniTab[c])
			if n == len(src) {
				return
			}
			dst, src = dst[n:], src[n:]
		}
		mulTableSlice(dst, src, f.bulkRow(c))
	case TierAVX2:
		if n := len(src) &^ 31; n > 0 {
			addMulNibAsm(&dst[0], &src[0], n, &f.nibTab[int(c)*32])
			if n == len(src) {
				return
			}
			dst, src = dst[n:], src[n:]
		}
		mulTableSlice(dst, src, f.bulkRow(c))
	default:
		mulTableSlice(dst, src, f.bulkRow(c))
	}
}

// AddMulSlices performs dst ^= Σ cs[j]·srcs[j] over len(dst) bytes: the
// AddMulSlice loop over the rows, in order, as one call. On the gfni
// tiers a dst of a whole number of 32-byte blocks, at most 256 bytes — a
// coefficient or transform row — is held in registers for the whole
// call and stored once (rowKernel). Longer rows go four at a time
// through one fused pass over dst (64-byte blocks, 128 bytes an
// iteration on gfni512; the tail, and any dst shorter than a block,
// finishes row by row), so dst is loaded and stored once per four rows
// instead of once per row and the four source streams are fetched side
// by side — what a combination of rows that arrive from L3 is bound by.
// The other tiers run the loop. Rows with a zero coefficient are skipped
// and may be nil.
//
// dst may be exactly srcs[0] (each block is read before it is written,
// the AddMulSlice contract) and must overlap no other row. It panics,
// before anything is written, when len(cs) != len(srcs) or a row with a
// non-zero coefficient is shorter than dst.
func (f *GF2m) AddMulSlices(dst []byte, srcs [][]byte, cs []Elem) {
	if len(cs) != len(srcs) {
		panic("gf: AddMulSlices: coefficient count does not match row count")
	}
	n := len(dst)
	if rowKernel(n) && len(cs) > 0 {
		if !addMulRowsGFNIAsm(&dst[0], n, &srcs[0], &cs[0], len(cs), &f.gfniTab[0], uint64(f.mask)) {
			panic("gf: AddMulSlices: source row shorter than dst")
		}
		return
	}
	for j, c := range cs {
		if c != 0 && len(srcs[j]) < n {
			panic("gf: AddMulSlices: source row shorter than dst")
		}
	}
	done := 0
	if activeTier >= TierGFNI && n >= 64 {
		done = n &^ 63
		var (
			rows [4]*byte
			mats [4]uint64
			g    int
		)
		for j, c := range cs {
			if c == 0 {
				continue
			}
			rows[g], mats[g] = &srcs[j][0], f.gfniTab[c]
			if g++; g == 4 {
				addMulGFNI4(&dst[0], done, &rows, &mats)
				g = 0
			}
		}
		if g > 0 {
			// A short last group is padded with zero matrices over a row
			// already in it: c = 0 contributes nothing.
			for ; g < 4; g++ {
				rows[g], mats[g] = rows[0], 0
			}
			addMulGFNI4(&dst[0], done, &rows, &mats)
		}
	}
	if done == n {
		return
	}
	for j, c := range cs {
		if c != 0 {
			f.AddMulSlice(dst[done:], srcs[j][done:n], c)
		}
	}
}

// addMulGFNI4 runs the fused four-row pass of the active gfni tier.
func addMulGFNI4(dst *byte, n int, srcs *[4]*byte, mats *[4]uint64) {
	if activeTier >= TierGFNI512 {
		addMulGFNI4ZAsm(dst, n, srcs, mats)
		return
	}
	addMulGFNI4Asm(dst, n, srcs, mats)
}

// rowKernel reports whether a row of n bytes goes to the register-
// resident row kernels: on the gfni tiers, for a whole number of 32-byte
// blocks up to 256 bytes (eight YMM registers).
func rowKernel(n int) bool {
	return activeTier >= TierGFNI && n&31 == 0 && uint(n-1) < 256
}

// ReduceRows eliminates v against rows in echelon form, in order: for
// each i it reads c = v[pivots[i]], skips row i when c is 0, and
// otherwise applies v ^= factor·rows[i] with factor = c·pivFac[i],
// recording factor in facs[i] (0 for a skipped row) when facs is not
// nil. Row i must be zero before its pivot: the register-resident kernel
// of the gfni tiers (one call for every row, rowKernel widths) starts
// each row at the 32-byte block holding its pivot, and the AddMulSlice
// loop the other widths and tiers run — the kernel's oracle — covers the
// whole row. It panics, before anything is written, on a pivot outside
// v, a row shorter than v, or pivFac or a non-nil facs shorter than
// pivots.
func (f *GF2m) ReduceRows(v []byte, rows [][]byte, pivots []int, pivFac, facs []Elem) {
	n, cnt := len(v), len(pivots)
	if len(rows) < cnt || len(pivFac) < cnt || (facs != nil && len(facs) < cnt) {
		panic("gf: ReduceRows: fewer rows, pivot factors or factor slots than pivots")
	}
	for i, p := range pivots {
		if uint(p) >= uint(n) || len(rows[i]) < n {
			panic("gf: ReduceRows: pivot outside the row, or row shorter than it")
		}
	}
	if rowKernel(n) && cnt > 0 {
		var fp *Elem
		if facs != nil {
			fp = &facs[0]
		}
		reduceRowsGFNIAsm(&v[0], n, &rows[0], &pivots[0], &pivFac[0], fp, cnt,
			&f.bulkTab[0], &f.gfniTab[0], uint64(f.mask))
		return
	}
	for i, p := range pivots {
		var factor Elem
		if c := Elem(v[p]); c != 0 {
			factor = f.Mul(c, pivFac[i])
			f.AddMulSlice(v, rows[i][:n], factor)
		}
		if facs != nil {
			facs[i] = factor
		}
	}
}

// MulSlice performs v[i] = c * v[i] in place over a byte row, tiered the
// same way as AddMulSlice.
func (f *GF2m) MulSlice(v []byte, c Elem) {
	if c == 1 {
		return
	}
	if c == 0 {
		clear(v)
		return
	}
	switch activeTier {
	case TierGFNI, TierGFNI512:
		if n := len(v) &^ 31; n > 0 {
			mulGFNIAsm(&v[0], n, f.gfniTab[c])
			if n == len(v) {
				return
			}
			v = v[n:]
		}
		scaleTableSlice(v, f.bulkRow(c))
	case TierAVX2:
		if n := len(v) &^ 31; n > 0 {
			mulNibAsm(&v[0], n, &f.nibTab[int(c)*32])
			if n == len(v) {
				return
			}
			v = v[n:]
		}
		scaleTableSlice(v, f.bulkRow(c))
	default:
		scaleTableSlice(v, f.bulkRow(c))
	}
}

// AXPY performs dst[i] ^= c * src[i] through the byte kernel (Elem rows and
// byte rows share a layout).
func (f *GF2m) AXPY(dst, src []Elem, c Elem) {
	f.AddMulSlice(AsBytes(dst), AsBytes(src), c)
}

// Scale performs v[i] *= c in place through the byte kernel.
func (f *GF2m) Scale(v []Elem, c Elem) {
	f.MulSlice(AsBytes(v), c)
}
