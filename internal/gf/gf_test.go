package gf

import (
	"strings"
	"testing"
	"testing/quick"

	"algossip/internal/core"
)

// allFields returns one instance of every supported field for exhaustive
// axiom checking.
func allFields(t *testing.T) []Field {
	t.Helper()
	orders := []int{2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 7, 11, 13, 101, 251}
	fields := make([]Field, 0, len(orders))
	for _, q := range orders {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		fields = append(fields, f)
	}
	return fields
}

func TestNewUnsupportedOrders(t *testing.T) {
	for _, q := range []int{-2, 0, 1, 6, 9, 10, 12, 100, 255, 257, 512, 1024} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d): expected error, got nil", q)
		}
		if err := CheckOrder(q); err == nil || !strings.Contains(err.Error(), "supported: 2, 4") {
			t.Errorf("CheckOrder(%d) = %v, want an error naming the supported orders", q, err)
		}
	}
	for _, q := range FieldOrders() {
		if err := CheckOrder(q); err != nil {
			t.Errorf("CheckOrder(%d): %v", q, err)
		}
	}
}

func TestFieldMetadata(t *testing.T) {
	tests := []struct {
		order    int
		wantChar int
		wantName string
	}{
		{2, 2, "GF(2)"},
		{4, 2, "GF(4)"},
		{16, 2, "GF(16)"},
		{256, 2, "GF(256)"},
		{7, 7, "F_7"},
		{251, 251, "F_251"},
	}
	for _, tt := range tests {
		f := MustNew(tt.order)
		if f.Order() != tt.order {
			t.Errorf("order %d: Order() = %d", tt.order, f.Order())
		}
		if f.Char() != tt.wantChar {
			t.Errorf("order %d: Char() = %d, want %d", tt.order, f.Char(), tt.wantChar)
		}
		if f.Name() != tt.wantName {
			t.Errorf("order %d: Name() = %q, want %q", tt.order, f.Name(), tt.wantName)
		}
	}
}

// TestFieldAxioms exhaustively verifies the field axioms for every supported
// field (orders are small enough for O(q^3) associativity checks up to 16,
// O(q^2) beyond).
func TestFieldAxioms(t *testing.T) {
	for _, f := range allFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			q := f.Order()
			// Commutativity, identity, inverses: O(q^2).
			for a := 0; a < q; a++ {
				ea := Elem(a)
				if got := f.Add(ea, 0); got != ea {
					t.Fatalf("%v + 0 = %v", ea, got)
				}
				if got := f.Mul(ea, 1); got != ea {
					t.Fatalf("%v * 1 = %v", ea, got)
				}
				if got := f.Mul(ea, 0); got != 0 {
					t.Fatalf("%v * 0 = %v", ea, got)
				}
				if got := f.Add(ea, f.Neg(ea)); got != 0 {
					t.Fatalf("%v + (-%v) = %v", ea, ea, got)
				}
				if a != 0 {
					if got := f.Mul(ea, f.Inv(ea)); got != 1 {
						t.Fatalf("%v * %v^-1 = %v", ea, ea, got)
					}
				}
				for b := 0; b < q; b++ {
					eb := Elem(b)
					if f.Add(ea, eb) != f.Add(eb, ea) {
						t.Fatalf("addition not commutative at (%d,%d)", a, b)
					}
					if f.Mul(ea, eb) != f.Mul(eb, ea) {
						t.Fatalf("multiplication not commutative at (%d,%d)", a, b)
					}
					if f.Sub(f.Add(ea, eb), eb) != ea {
						t.Fatalf("(a+b)-b != a at (%d,%d)", a, b)
					}
					if b != 0 {
						if f.Div(f.Mul(ea, eb), eb) != ea {
							t.Fatalf("(a*b)/b != a at (%d,%d)", a, b)
						}
					}
				}
			}
			// Associativity and distributivity: O(q^3), restricted to small q.
			if q <= 16 {
				for a := 0; a < q; a++ {
					for b := 0; b < q; b++ {
						for c := 0; c < q; c++ {
							ea, eb, ec := Elem(a), Elem(b), Elem(c)
							if f.Add(f.Add(ea, eb), ec) != f.Add(ea, f.Add(eb, ec)) {
								t.Fatalf("addition not associative at (%d,%d,%d)", a, b, c)
							}
							if f.Mul(f.Mul(ea, eb), ec) != f.Mul(ea, f.Mul(eb, ec)) {
								t.Fatalf("multiplication not associative at (%d,%d,%d)", a, b, c)
							}
							if f.Mul(ea, f.Add(eb, ec)) != f.Add(f.Mul(ea, eb), f.Mul(ea, ec)) {
								t.Fatalf("not distributive at (%d,%d,%d)", a, b, c)
							}
						}
					}
				}
			}
		})
	}
}

// TestFieldAxiomsQuick property-checks associativity and distributivity on
// the larger fields where the exhaustive O(q^3) loop is skipped.
func TestFieldAxiomsQuick(t *testing.T) {
	for _, q := range []int{32, 64, 128, 256, 251} {
		f := MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			mod := func(x uint8) Elem { return Elem(int(x) % q) }
			assoc := func(a, b, c uint8) bool {
				ea, eb, ec := mod(a), mod(b), mod(c)
				return f.Mul(f.Mul(ea, eb), ec) == f.Mul(ea, f.Mul(eb, ec)) &&
					f.Add(f.Add(ea, eb), ec) == f.Add(ea, f.Add(eb, ec))
			}
			distrib := func(a, b, c uint8) bool {
				ea, eb, ec := mod(a), mod(b), mod(c)
				return f.Mul(ea, f.Add(eb, ec)) == f.Add(f.Mul(ea, eb), f.Mul(ea, ec))
			}
			if err := quick.Check(assoc, nil); err != nil {
				t.Errorf("associativity: %v", err)
			}
			if err := quick.Check(distrib, nil); err != nil {
				t.Errorf("distributivity: %v", err)
			}
		})
	}
}

func TestMulMatchesPolyMul(t *testing.T) {
	// The table-driven product must agree with direct polynomial
	// multiplication for GF(256).
	f, err := NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	poly := _irreducible[8]
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := Elem(polyMul(uint(a), uint(b), poly, 8))
			if got := f.Mul(Elem(a), Elem(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAXPY(t *testing.T) {
	for _, f := range allFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := core.NewRand(42)
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.IntN(40)
				dst := RandVector(f, n, rng)
				src := RandVector(f, n, rng)
				c := Rand(f, rng)
				want := make([]Elem, n)
				for i := range want {
					want[i] = f.Add(dst[i], f.Mul(c, src[i]))
				}
				f.AXPY(dst, src, c)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("AXPY mismatch at %d: got %d want %d (c=%d)", i, dst[i], want[i], c)
					}
				}
			}
		})
	}
}

func TestScale(t *testing.T) {
	for _, f := range allFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := core.NewRand(7)
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.IntN(40)
				v := RandVector(f, n, rng)
				c := Rand(f, rng)
				want := make([]Elem, n)
				for i := range want {
					want[i] = f.Mul(c, v[i])
				}
				f.Scale(v, c)
				for i := range want {
					if v[i] != want[i] {
						t.Fatalf("Scale mismatch at %d: got %d want %d (c=%d)", i, v[i], want[i], c)
					}
				}
			}
		})
	}
}

// dot is the inner product Σ a[i]·b[i] by the scalar Mul and Add: what the
// field's bulk operations are checked against (the Field interface itself
// has no inner product; nothing outside tests ever took one).
func dot(f Field, a, b []Elem) Elem {
	var acc Elem
	for i := range a {
		acc = f.Add(acc, f.Mul(a[i], b[i]))
	}
	return acc
}

// TestDotProduct: the inner product is symmetric and bilinear over the
// vectors the bulk operations build — (a + c·x)·b = a·b + c·(x·b) with the
// left side formed by AXPY, (c·a)·b = c·(a·b) with it formed by Scale.
func TestDotProduct(t *testing.T) {
	for _, f := range allFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := core.NewRand(11)
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.IntN(40)
				a, b, x := RandVector(f, n, rng), RandVector(f, n, rng), RandVector(f, n, rng)
				c := Rand(f, rng)
				ab, xb := dot(f, a, b), dot(f, x, b)
				if ba := dot(f, b, a); ba != ab {
					t.Fatalf("a·b = %d but b·a = %d", ab, ba)
				}
				sum := append([]Elem(nil), a...)
				f.AXPY(sum, x, c)
				if got, want := dot(f, sum, b), f.Add(ab, f.Mul(c, xb)); got != want {
					t.Fatalf("(a + %d·x)·b = %d, want %d", c, got, want)
				}
				scaled := append([]Elem(nil), a...)
				f.Scale(scaled, c)
				if got, want := dot(f, scaled, b), f.Mul(c, ab); got != want {
					t.Fatalf("(%d·a)·b = %d, want %d", c, got, want)
				}
			}
		})
	}
}

func TestDivByZeroPanics(t *testing.T) {
	for _, f := range allFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			assertPanics(t, func() { f.Div(1, 0) })
			assertPanics(t, func() { f.Inv(0) })
		})
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	fn()
}

func TestRandHelpers(t *testing.T) {
	f := MustNew(16)
	rng := core.NewRand(3)
	seen := make(map[Elem]bool)
	for i := 0; i < 2000; i++ {
		e := Rand(f, rng)
		if int(e) >= 16 {
			t.Fatalf("Rand out of range: %d", e)
		}
		seen[e] = true
	}
	if len(seen) != 16 {
		t.Errorf("Rand did not cover the field after 2000 draws: %d/16", len(seen))
	}
	v := RandVector(f, 10, rng)
	if len(v) != 10 {
		t.Fatalf("RandVector length = %d", len(v))
	}
}

func TestIsZeroVector(t *testing.T) {
	if !IsZeroVector([]Elem{0, 0, 0}) {
		t.Error("all-zero vector not recognized")
	}
	if !IsZeroVector(nil) {
		t.Error("nil vector should be zero")
	}
	if IsZeroVector([]Elem{0, 1, 0}) {
		t.Error("nonzero vector reported zero")
	}
	// One nonzero entry at every position of a row spanning whole words
	// and a tail.
	for i := 0; i < 19; i++ {
		v := make([]Elem, 19)
		v[i] = 0x80
		if IsZeroVector(v) {
			t.Errorf("nonzero entry at %d of 19 missed", i)
		}
	}
}

func TestMustNewPanicsOnBadOrder(t *testing.T) {
	assertPanics(t, func() { MustNew(6) })
}

func BenchmarkMulGF256(b *testing.B) {
	f := MustNew(256)
	var acc Elem
	for i := 0; i < b.N; i++ {
		acc ^= f.Mul(Elem(i), Elem(i>>8))
	}
	_ = acc
}

func BenchmarkAXPYGF256(b *testing.B) {
	f := MustNew(256)
	rng := core.NewRand(1)
	dst := RandVector(f, 1024, rng)
	src := RandVector(f, 1024, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AXPY(dst, src, Elem(i|1))
	}
}
