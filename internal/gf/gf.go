// Package gf implements the finite fields F_q used by random linear network
// coding (RLNC). Algebraic gossip draws the coefficients of every random
// linear combination uniformly from F_q; the paper's bounds only need q >= 2
// (the probability that a combination from a helpful node is helpful is at
// least 1 - 1/q, Lemma 2.1 of Deb et al.), so the package provides GF(2),
// the binary extension fields GF(4), GF(16) and GF(256), a generic GF(2^m)
// constructor, and small prime fields F_p.
//
// All elements are represented as a single byte (Elem), which covers every
// field of order at most 256 — more than enough: larger fields only move the
// helpfulness probability closer to 1.
package gf

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Elem is an element of a finite field of order at most 256. The zero value
// is the additive identity of every field.
type Elem uint8

// Field is a finite field F_q with q <= 256. Implementations must be
// immutable after construction and safe for concurrent use.
//
// Div and Inv panic when the divisor is zero; callers own the precondition,
// exactly as with integer division.
type Field interface {
	// Order returns q, the number of elements.
	Order() int
	// Char returns the characteristic of the field (2 for GF(2^m), p for F_p).
	Char() int
	// Name returns a short human-readable name such as "GF(256)".
	Name() string

	// Add returns a + b.
	Add(a, b Elem) Elem
	// Sub returns a - b.
	Sub(a, b Elem) Elem
	// Neg returns -a.
	Neg(a Elem) Elem
	// Mul returns a * b.
	Mul(a, b Elem) Elem
	// Div returns a / b. It panics if b == 0.
	Div(a, b Elem) Elem
	// Inv returns the multiplicative inverse of a. It panics if a == 0.
	Inv(a Elem) Elem

	// AXPY performs dst[i] += c * src[i] for every index of src.
	// len(dst) must be at least len(src).
	AXPY(dst, src []Elem, c Elem)
	// Scale performs v[i] *= c for every index of v.
	Scale(v []Elem, c Elem)

	// AddMulSlice performs dst[i] += c * src[i] over byte-encoded field
	// elements for every index of src — the bulk combine kernel of RLNC
	// encode and decode. len(dst) must be at least len(src), and every byte
	// must hold a valid field element (< Order()).
	AddMulSlice(dst, src []byte, c Elem)
	// MulSlice performs v[i] *= c in place over byte-encoded field elements.
	MulSlice(v []byte, c Elem)
}

// Rand returns an element of f drawn uniformly at random.
func Rand(f Field, rng *rand.Rand) Elem {
	return Elem(rng.IntN(f.Order()))
}

// RandVector fills a fresh length-n vector with uniform random elements of f.
func RandVector(f Field, n int, rng *rand.Rand) []Elem {
	v := make([]Elem, n)
	for i := range v {
		v[i] = Rand(f, rng)
	}
	return v
}

// RandBytes fills a fresh length-n byte row with uniform random elements of
// f, one element per byte — the payload-side counterpart of RandVector.
func RandBytes(f Field, n int, rng *rand.Rand) []byte {
	v := make([]byte, n)
	q := f.Order() // once: a call through the interface per byte was most of a payload set-up
	for i := range v {
		v[i] = byte(rng.IntN(q))
	}
	return v
}

// IsZeroVector reports whether every entry of v is zero, eight entries
// at a time: it is the first screen of every receive on byte-row decoders,
// and an all-zero row (a non-innovative flood) pays the whole scan.
func IsZeroVector(v []Elem) bool {
	b := AsBytes(v)
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// CheckOrder reports whether New accepts the order — 2, 4, 8, 16, 32, 64,
// 128 and 256 (binary extension fields) and the primes up to 251 — without
// building a field: the one owner of "which orders exist", cheap enough for
// a per-trial screen.
func CheckOrder(order int) error {
	if order >= 2 && order <= 256 && (order&(order-1) == 0 || isPrime(order)) {
		return nil
	}
	return fmt.Errorf("gf: unsupported field order %d (supported: 2, 4, 8, 16, 32, 64, 128, 256 and the primes up to 251)", order)
}

// New returns the field with the given order; CheckOrder names the
// supported ones.
func New(order int) (Field, error) {
	if err := CheckOrder(order); err != nil {
		return nil, err
	}
	switch {
	case order == 2:
		return GF2{}, nil
	case order&(order-1) == 0:
		return NewGF2m(bits.TrailingZeros(uint(order)))
	default:
		return NewPrime(order)
	}
}

// MustNew is like New but panics on error. It is intended for package-level
// construction with known-good orders.
func MustNew(order int) Field {
	f, err := New(order)
	if err != nil {
		panic(err)
	}
	return f
}

// FieldOrders lists every order New accepts: the binary extension fields
// GF(2^m) for m ≤ 8 plus a spread of small primes. Property tests sweep
// this list to cover all three coding backends (bit-packed GF(2),
// bit-sliced GF(2^m), generic prime).
func FieldOrders() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 7, 11, 13, 251}
}

// Fields returns one instance of every supported field, in FieldOrders
// order.
func Fields() []Field {
	orders := FieldOrders()
	out := make([]Field, len(orders))
	for i, q := range orders {
		out[i] = MustNew(q)
	}
	return out
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}
