package gf

import "fmt"

// Prime is the prime field F_p for a prime p <= 251, with arithmetic modulo
// p. It exists mainly for tests that exercise a field of odd characteristic;
// the gossip protocols default to binary extension fields.
type Prime struct {
	p   int
	inv []Elem
}

var _ Field = (*Prime)(nil)

// NewPrime constructs F_p. p must be prime and at most 251 (so that all
// elements fit in a byte).
func NewPrime(p int) (*Prime, error) {
	if p < 2 || p > 251 || !isPrime(p) {
		return nil, fmt.Errorf("gf: %d is not a prime in [2, 251]", p)
	}
	f := &Prime{p: p, inv: make([]Elem, p)}
	for a := 1; a < p; a++ {
		f.inv[a] = Elem(modPow(a, p-2, p))
	}
	return f, nil
}

func modPow(base, exp, mod int) int {
	result := 1
	base %= mod
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % mod
		}
		base = base * base % mod
		exp >>= 1
	}
	return result
}

// Order returns p.
func (f *Prime) Order() int { return f.p }

// Char returns p.
func (f *Prime) Char() int { return f.p }

// Name returns e.g. "F_251".
func (f *Prime) Name() string { return fmt.Sprintf("F_%d", f.p) }

// Add returns (a + b) mod p.
func (f *Prime) Add(a, b Elem) Elem { return Elem((int(a) + int(b)) % f.p) }

// Sub returns (a - b) mod p.
func (f *Prime) Sub(a, b Elem) Elem { return Elem((int(a) - int(b) + f.p) % f.p) }

// Neg returns -a mod p.
func (f *Prime) Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(f.p - int(a))
}

// Mul returns a*b mod p.
func (f *Prime) Mul(a, b Elem) Elem { return Elem(int(a) * int(b) % f.p) }

// Div returns a/b mod p. It panics if b == 0.
func (f *Prime) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero in " + f.Name())
	}
	return f.Mul(a, f.inv[b])
}

// Inv returns a^-1 mod p. It panics if a == 0.
func (f *Prime) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero in " + f.Name())
	}
	return f.inv[a]
}

// AXPY performs dst[i] = (dst[i] + c*src[i]) mod p.
func (f *Prime) AXPY(dst, src []Elem, c Elem) {
	if c == 0 || len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] = Elem((int(dst[i]) + int(c)*int(s)) % f.p)
	}
}

// Scale performs v[i] = c*v[i] mod p.
func (f *Prime) Scale(v []Elem, c Elem) {
	for i, x := range v {
		v[i] = Elem(int(c) * int(x) % f.p)
	}
}

// AddMulSlice performs dst[i] = (dst[i] + c*src[i]) mod p over byte rows —
// the generic scalar fallback for fields of odd characteristic, where
// addition is not XOR and no table walk applies.
func (f *Prime) AddMulSlice(dst, src []byte, c Elem) {
	if c == 0 || len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	ci := int(c)
	for i, s := range src {
		dst[i] = byte((int(dst[i]) + ci*int(s)) % f.p)
	}
}

// MulSlice performs v[i] = c*v[i] mod p over a byte row.
func (f *Prime) MulSlice(v []byte, c Elem) {
	if c == 1 {
		return
	}
	if c == 0 {
		clear(v)
		return
	}
	ci := int(c)
	for i, s := range v {
		v[i] = byte(ci * int(s) % f.p)
	}
}
