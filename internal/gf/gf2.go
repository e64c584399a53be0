package gf

// GF2 is the binary field F_2 = {0, 1}. Addition is XOR and multiplication
// is AND, so no tables are needed. It is the smallest field the paper's
// analysis permits (q >= 2, helpfulness probability at least 1/2).
type GF2 struct{}

var _ Field = GF2{}

// Order returns 2.
func (GF2) Order() int { return 2 }

// Char returns 2.
func (GF2) Char() int { return 2 }

// Name returns "GF(2)".
func (GF2) Name() string { return "GF(2)" }

// Add returns a XOR b.
func (GF2) Add(a, b Elem) Elem { return (a ^ b) & 1 }

// Sub returns a XOR b (subtraction equals addition in characteristic 2).
func (GF2) Sub(a, b Elem) Elem { return (a ^ b) & 1 }

// Neg returns a (every element is its own additive inverse).
func (GF2) Neg(a Elem) Elem { return a & 1 }

// Mul returns a AND b.
func (GF2) Mul(a, b Elem) Elem { return a & b & 1 }

// Div returns a / b. It panics if b == 0.
func (GF2) Div(a, b Elem) Elem {
	if b&1 == 0 {
		panic("gf: division by zero in GF(2)")
	}
	return a & 1
}

// Inv returns 1 for a == 1 and panics for a == 0.
func (GF2) Inv(a Elem) Elem {
	if a&1 == 0 {
		panic("gf: inverse of zero in GF(2)")
	}
	return 1
}

// AddMulSlice performs dst[i] ^= src[i] over byte rows when c == 1 (and
// nothing when c == 0): a word-wise XOR, the GF(2) fast path.
func (GF2) AddMulSlice(dst, src []byte, c Elem) {
	if c&1 == 0 || len(src) == 0 {
		return
	}
	xorSlice(dst, src)
}

// MulSlice zeroes v when c == 0 and leaves it unchanged otherwise.
func (GF2) MulSlice(v []byte, c Elem) {
	if c&1 == 0 {
		clear(v)
	}
}

// AXPY performs dst[i] ^= c & src[i] through the word-wise XOR kernel.
func (f GF2) AXPY(dst, src []Elem, c Elem) {
	f.AddMulSlice(AsBytes(dst), AsBytes(src), c)
}

// Scale zeroes v when c == 0 and leaves it unchanged otherwise.
func (f GF2) Scale(v []Elem, c Elem) {
	f.MulSlice(AsBytes(v), c)
}
