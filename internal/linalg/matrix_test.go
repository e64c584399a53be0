package linalg

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func TestMatrixBasics(t *testing.T) {
	f := gf.MustNew(256)
	m := NewMatrix(f, 2, 3)
	m.Set(0, 0, 5)
	m.Set(1, 2, 7)
	if m.At(0, 0) != 5 || m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Fatal("At/Set wrong")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dimensions wrong")
	}
	cp := m.Clone()
	cp.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases")
	}
	if m.Equal(cp) {
		t.Fatal("Equal wrong after mutation")
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
}

func TestIdentityMul(t *testing.T) {
	for _, q := range []int{2, 16, 256, 7} {
		f := gf.MustNew(q)
		rng := core.NewRand(uint64(q))
		a := RandomMatrix(f, 5, 5, rng)
		id := Identity(f, 5)
		if !a.Mul(id).Equal(a) || !id.Mul(a).Equal(a) {
			t.Fatalf("%s: identity law fails", f.Name())
		}
	}
}

// TestMulAssociativity: (AB)C == A(BC) over random matrices.
func TestMulAssociativityQuick(t *testing.T) {
	f := gf.MustNew(16)
	check := func(seed uint64) bool {
		rng := core.NewRand(seed)
		a := RandomMatrix(f, 3, 4, rng)
		b := RandomMatrix(f, 4, 2, rng)
		c := RandomMatrix(f, 2, 5, rng)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := gf.MustNew(4)
	rng := core.NewRand(3)
	a := RandomMatrix(f, 3, 7, rng)
	if !a.Transpose().Transpose().Equal(a) {
		t.Fatal("double transpose is not identity")
	}
	// (AB)^T == B^T A^T.
	b := RandomMatrix(f, 7, 2, rng)
	if !a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose())) {
		t.Fatal("transpose product law fails")
	}
}

// TestInverseLaw: A·A⁻¹ == I for random invertible matrices, across fields.
func TestInverseLawQuick(t *testing.T) {
	for _, q := range []int{2, 256, 11} {
		f := gf.MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			check := func(seed uint64) bool {
				rng := core.NewRand(seed)
				n := 1 + rng.IntN(8)
				a := RandomMatrix(f, n, n, rng)
				inv, err := a.Inverse()
				if errors.Is(err, ErrSingular) {
					return a.Rank() < n // singularity must coincide with rank deficiency
				}
				if err != nil {
					return false
				}
				id := Identity(f, n)
				return a.Mul(inv).Equal(id) && inv.Mul(a).Equal(id)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInverseSingular(t *testing.T) {
	f := gf.MustNew(2)
	m := FromRows(f, [][]gf.Elem{{1, 1}, {1, 1}})
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	rect := NewMatrix(f, 2, 3)
	if _, err := rect.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatal("rectangular inverse must fail")
	}
}

// TestDecodeIsInversion demonstrates the RLNC identity the library is built
// on: if Y = C·X for a full-rank coefficient matrix C, then X = C⁻¹·Y —
// and it matches RankMatrix.Solve on the same data.
func TestDecodeIsInversion(t *testing.T) {
	f := gf.MustNew(256)
	rng := core.NewRand(17)
	const k, r = 6, 3
	x := RandomMatrix(f, k, r, rng) // original messages
	var c *Matrix
	for {
		c = RandomMatrix(f, k, k, rng)
		if c.Rank() == k {
			break
		}
	}
	y := c.Mul(x) // received combinations

	// Path 1: explicit inversion.
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	decoded := inv.Mul(y)
	if !decoded.Equal(x) {
		t.Fatal("inversion decode mismatch")
	}

	// Path 2: the incremental decoder on augmented rows.
	rm := NewRankMatrix(f, k, r)
	for i := 0; i < k; i++ {
		pay := make([]byte, r)
		for j, s := range y.Row(i) {
			pay[j] = byte(s)
		}
		rm.AddOwned(slices.Clone(c.Row(i)), pay)
	}
	solved, err := rm.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < r; j++ {
			if solved[i][j] != byte(x.At(i, j)) {
				t.Fatalf("RankMatrix.Solve disagrees with inversion at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	f := gf.MustNew(7)
	m := FromRows(f, [][]gf.Elem{{1, 2}, {3, 4}})
	got := m.MulVec([]gf.Elem{5, 6})
	// Over F_7: row0 = 5 + 12 = 17 mod 7 = 3; row1 = 15 + 24 = 39 mod 7 = 4.
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("MulVec = %v", got)
	}
}

// TestRandomSquareInvertibleFraction sanity-checks the well-known fact that
// a uniform random square matrix over GF(q) is invertible with probability
// ~prod(1-q^-i) (≈ 0.29 for q=2, ≈ 0.996 for q=256).
func TestRandomSquareInvertibleFraction(t *testing.T) {
	rng := core.NewRand(23)
	count := func(q int) float64 {
		f := gf.MustNew(q)
		inv := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			if RandomMatrix(f, 8, 8, rng).Rank() == 8 {
				inv++
			}
		}
		return float64(inv) / trials
	}
	if got := count(2); got < 0.20 || got > 0.40 {
		t.Errorf("GF(2) invertible fraction %.2f, want ~0.29", got)
	}
	if got := count(256); got < 0.95 {
		t.Errorf("GF(256) invertible fraction %.2f, want ~1", got)
	}
}
