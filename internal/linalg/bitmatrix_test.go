package linalg

import (
	"testing"
	"testing/quick"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func TestBitVecOps(t *testing.T) {
	v := NewBitVec(130)
	if !v.IsZero() {
		t.Fatal("fresh vector not zero")
	}
	v.Set(0)
	v.Set(64)
	v.Set(129)
	if v.OnesCount() != 3 {
		t.Fatalf("OnesCount = %d, want 3", v.OnesCount())
	}
	if !v.Get(64) || v.Get(63) {
		t.Fatal("Get wrong")
	}
	if v.LowestSet() != 0 {
		t.Fatalf("LowestSet = %d, want 0", v.LowestSet())
	}
	v.Clear(0)
	if v.LowestSet() != 64 {
		t.Fatalf("LowestSet = %d, want 64", v.LowestSet())
	}
	w := v.Clone()
	w.Xor(v)
	if !w.IsZero() {
		t.Fatal("v XOR v must be zero")
	}
	if v.IsZero() {
		t.Fatal("Clone must not alias")
	}
	if NewBitVec(1).LowestSet() != -1 {
		t.Fatal("LowestSet of zero vector must be -1")
	}
}

func TestBitMatrixRank(t *testing.T) {
	m := NewBitMatrix(4)
	row := func(bitsSet ...int) BitVec {
		v := NewBitVec(4)
		for _, b := range bitsSet {
			v.Set(b)
		}
		return v
	}
	if !m.Add(row(0, 1)) {
		t.Fatal("first row helpful")
	}
	if !m.Add(row(1, 2)) {
		t.Fatal("second row helpful")
	}
	if m.Add(row(0, 2)) { // sum of the first two
		t.Fatal("dependent row must not help")
	}
	if m.Rank() != 2 {
		t.Fatalf("rank = %d", m.Rank())
	}
	if !m.WouldHelp(row(3)) {
		t.Fatal("independent row should help")
	}
	if m.Rank() != 2 {
		t.Fatal("WouldHelp must not mutate")
	}
	m.Add(row(3))
	m.Add(row(2))
	if !m.Full() {
		t.Fatal("should be full rank")
	}
	if m.Add(row(0, 1, 2, 3)) {
		t.Fatal("nothing helps a full matrix")
	}
}

func TestBitMatrixZeroRow(t *testing.T) {
	m := NewBitMatrix(8)
	if m.Add(NewBitVec(8)) {
		t.Fatal("zero row must not increase rank")
	}
}

// TestBitMatrixAgreesWithRankMatrix cross-validates the GF(2) bitset
// implementation against the generic field implementation on random
// insertion sequences.
func TestBitMatrixAgreesWithRankMatrix(t *testing.T) {
	f := gf.MustNew(2)
	check := func(seed uint64) bool {
		rng := core.NewRand(seed)
		cols := 1 + rng.IntN(70)
		bm := NewBitMatrix(cols)
		rm := NewRankMatrix(f, cols, 0)
		for i := 0; i < 40; i++ {
			bv := NewBitVec(cols)
			ev := make([]gf.Elem, cols)
			for j := 0; j < cols; j++ {
				if rng.Uint64()&1 == 1 {
					bv.Set(j)
					ev[j] = 1
				}
			}
			if bm.Add(bv) != rm.Add(ev, nil) {
				return false
			}
			if bm.Rank() != rm.Rank() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBitMatrixRandomCombination(t *testing.T) {
	rng := core.NewRand(21)
	m := NewBitMatrix(32)
	if m.RandomCombination(rng) != nil {
		t.Fatal("empty matrix must emit nil")
	}
	for i := 0; i < 10; i++ {
		v := NewBitVec(32)
		for j := 0; j < 32; j++ {
			if rng.Uint64()&1 == 1 {
				v.Set(j)
			}
		}
		m.Add(v)
	}
	for trial := 0; trial < 100; trial++ {
		combo := m.RandomCombination(rng)
		if m.WouldHelp(combo) {
			t.Fatal("own combination can never be helpful to the emitter")
		}
	}
}

func BenchmarkBitMatrixAdd256(b *testing.B) {
	rng := core.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewBitMatrix(256)
		for !m.Full() {
			v := NewBitVec(256)
			for w := range v {
				v[w] = rng.Uint64()
			}
			m.Add(v)
		}
	}
}

func BenchmarkRankMatrixAddGF256(b *testing.B) {
	f := gf.MustNew(256)
	rng := core.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewRankMatrix(f, 64, 0)
		for !m.Full() {
			m.Add(gf.RandVector(f, 64, rng), nil)
		}
	}
}

// BenchmarkRankMatrixEmitGF256 is RandomCombinationInto at rank k/2 of a
// k=128 GF(256) byte-row matrix — the emit half of a sweep_rank GF(256)
// node, the byte-row twin of BenchmarkSlicedEmitK128.
func BenchmarkRankMatrixEmitGF256(b *testing.B) {
	f := gf.MustNew(256)
	rng := core.NewRand(1)
	m := NewRankMatrix(f, 128, 0)
	for m.Rank() < 64 {
		m.Add(gf.RandVector(f, 128, rng), nil)
	}
	out := make([]gf.Elem, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RandomCombinationInto(rng, out, nil)
	}
}
