package linalg

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
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
	v[0] = 0
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
			if bm.Add(bv) != rm.AddOwned(ev, nil) {
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

// advanced returns the core.NewRand(seed) stream moved on by n draws, one
// Uint64 at a time: where an emit that draws n coefficients must leave it.
func advanced(seed uint64, n int) *rand.Rand {
	r := core.NewRand(seed)
	for range n {
		r.Uint64()
	}
	return r
}

// sameState reports whether two core.NewRand streams stand at the same
// place.
func sameState(a, b *rand.Rand) bool { return *core.Generator(a) == *core.Generator(b) }

// TestBitMatrixFlatMatchesRankMatrix is the property test of the flat
// pivot-ordered row block against RankMatrix over GF(2) as the oracle.
// Rows with a chosen leading column arrive in random column order, mixed
// with dense random rows, so new pivots land before, between and after
// the stored ones and every insert shifts a different tail. Widths cover
// the one-, two- and four-word branchless paths, full and with a partial
// last word, and the general one (three words and past four), with and
// without payload. After every insert the two matrices must agree on the
// verdict, the rank, every stored row and payload, WouldHelp on a fresh
// probe, and the emitted combination from the same stream — which must
// draw exactly Rank() values, one Uint64 per stored row — and at full
// rank on Solve.
func TestBitMatrixFlatMatchesRankMatrix(t *testing.T) {
	f := gf.MustNew(2)
	for _, cols := range []int{1, 16, 63, 64, 65, 128, 129, 192, 193, 256, 300} {
		for _, extra := range []int{0, 5} {
			t.Run(fmt.Sprintf("cols=%d/extra=%d", cols, extra), func(t *testing.T) {
				rng := core.NewRand(uint64(cols*10 + extra))
				bm, rm := NewBitMatrixPayload(cols, extra), NewRankMatrix(f, cols, extra)
				randomRow := func(lead int) (BitVec, []gf.Elem) {
					bv, ev := NewBitVec(cols), make([]gf.Elem, cols)
					for j := lead; j < cols; j++ {
						if j == lead || rng.Uint64()&1 == 1 {
							bv.Set(j)
							ev[j] = 1
						}
					}
					return bv, ev
				}
				var payload func() []byte
				if extra > 0 {
					payload = func() []byte { return gf.RandBytes(f, extra, rng) }
				} else {
					payload = func() []byte { return nil }
				}
				compare := func(step int) {
					t.Helper()
					if bm.Rank() != rm.Rank() {
						t.Fatalf("step %d: rank %d, oracle %d", step, bm.Rank(), rm.Rank())
					}
					for i := 0; i < bm.Rank(); i++ {
						row := bm.Row(i)
						for j := 0; j < cols; j++ {
							if want := rm.Row(i)[j] == 1; row.Get(j) != want {
								t.Fatalf("step %d: row %d column %d differs from the oracle", step, i, j)
							}
						}
						if !bytes.Equal(bm.Payload(i), payloadOf(rm, i)) {
							t.Fatalf("step %d: payload %d = %v, oracle %v", step, i, bm.Payload(i), payloadOf(rm, i))
						}
					}
					probeB, probeE := randomRow(rng.IntN(cols))
					if got, want := bm.WouldHelp(probeB), rm.WouldHelp(probeE); got != want {
						t.Fatalf("step %d: WouldHelp = %v, oracle %v", step, got, want)
					}
					if bm.Rank() == 0 {
						return
					}
					seed := rng.Uint64()
					outB, payB := NewBitVec(cols), make([]byte, extra)
					outE, payE := make([]gf.Elem, cols), make([]byte, extra)
					drawn := core.NewRand(seed)
					bm.RandomCombinationInto(drawn, outB, payB)
					rm.RandomCombinationInto(core.NewRand(seed), outE, payE)
					if !sameState(drawn, advanced(seed, bm.Rank())) {
						t.Fatalf("step %d: emit did not draw exactly one Uint64 per row at rank %d", step, bm.Rank())
					}
					for j := 0; j < cols; j++ {
						if outB.Get(j) != (outE[j] == 1) {
							t.Fatalf("step %d: combination differs from the oracle at column %d", step, j)
						}
					}
					if !bytes.Equal(payB, payE) {
						t.Fatalf("step %d: combined payload %v, oracle %v", step, payB, payE)
					}
				}
				leads := rng.Perm(cols)
				for step := 0; !bm.Full(); step++ {
					lead := rng.IntN(cols) // dense rows: mostly dependent late in the fill
					if step%2 == 0 && step/2 < cols {
						lead = leads[step/2]
					}
					bv, ev := randomRow(lead)
					pay := payload()
					if got, want := bm.AddPayload(bv, append([]byte(nil), pay...)), rm.AddOwned(ev, pay); got != want {
						t.Fatalf("step %d: Add = %v, oracle %v", step, got, want)
					}
					compare(step)
				}
				if extra == 0 {
					return
				}
				gotSol, err := bm.Solve()
				if err != nil {
					t.Fatal(err)
				}
				wantSol, err := rm.Solve()
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantSol {
					if !bytes.Equal(gotSol[i], wantSol[i]) {
						t.Fatalf("solved payload %d = %v, oracle %v", i, gotSol[i], wantSol[i])
					}
				}
				compare(-1) // Solve reduces the stored rows in place on both sides
			})
		}
	}
}

func TestBitMatrixRandomCombination(t *testing.T) {
	rng := core.NewRand(21)
	m := NewBitMatrix(32)
	combo := NewBitVec(32)
	if m.RandomCombinationInto(rng, combo, nil) {
		t.Fatal("empty matrix must emit nothing")
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
		if !m.RandomCombinationInto(rng, combo, nil) || m.WouldHelp(combo) {
			t.Fatal("own combination can never be helpful to the emitter")
		}
	}
}

// benchBitAdd fills a fresh rank-only cols-column matrix to full rank
// with random rows, once per op: a whole decoder's reduce/insert life.
// At 128 and 256 columns it times the two- and four-word register paths
// of reduce.
func benchBitAdd(b *testing.B, cols int) {
	rng := core.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewBitMatrix(cols)
		for !m.Full() {
			v := NewBitVec(cols)
			for w := range v {
				v[w] = rng.Uint64()
			}
			m.Add(v)
		}
	}
}

func BenchmarkBitMatrixAdd128(b *testing.B) { benchBitAdd(b, 128) }
func BenchmarkBitMatrixAdd256(b *testing.B) { benchBitAdd(b, 256) }

// benchBitEmit is RandomCombinationInto at rank cols/2 of a rank-only
// cols-column matrix, drawing from a core.NewRand stream: the emit half
// of a sweep_rank GF(2) node.
func benchBitEmit(b *testing.B, cols int) {
	rng := core.NewRand(1)
	m := NewBitMatrix(cols)
	for m.Rank() < cols/2 {
		v := NewBitVec(cols)
		for w := range v {
			v[w] = rng.Uint64()
		}
		m.Add(v)
	}
	out := NewBitVec(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RandomCombinationInto(rng, out, nil)
	}
}

func BenchmarkBitMatrixEmit128(b *testing.B) { benchBitEmit(b, 128) }
func BenchmarkBitMatrixEmit256(b *testing.B) { benchBitEmit(b, 256) }

// BenchmarkRankMatrixAddGF256 fills a k = 64 rank-only GF(256) byte-row
// matrix from empty to full rank: 64 helpful inserts of vectors drawn
// before the timer, each copied into a buffer AddOwned may clobber, the
// matrix Reset between fills so the op allocates nothing.
func BenchmarkRankMatrixAddGF256(b *testing.B) {
	const k = 64
	f := gf.MustNew(256)
	rng := core.NewRand(1)
	m := NewRankMatrix(f, k, 0)
	var vs [][]gf.Elem
	for !m.Full() {
		v := gf.RandVector(f, k, rng)
		if m.AddOwned(slices.Clone(v), nil) {
			vs = append(vs, v)
		}
	}
	buf := make([]gf.Elem, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		for _, v := range vs {
			copy(buf, v)
			m.AddOwned(buf, nil)
		}
	}
}

// BenchmarkRankMatrixReduceGF256 is the elimination alone: a random
// k = 128 GF(256) coefficient row reduced against rank 64 or 127 stored
// rows, with the factors recorded for a transform row (facs, what a
// payload matrix's insert does) or not (what WouldHelp and a rank-only
// Add do). The rows are drawn before the timer and reduced in a copy.
func BenchmarkRankMatrixReduceGF256(b *testing.B) {
	const k = 128
	f := gf.MustNew(256)
	for _, rank := range []int{64, 127} {
		rng := core.NewRand(uint64(rank))
		m := NewRankMatrix(f, k, 0)
		for m.Rank() < rank {
			m.AddOwned(gf.RandVector(f, k, rng), nil)
		}
		vs := make([][]gf.Elem, 64)
		for i := range vs {
			vs[i] = gf.RandVector(f, k, rng)
		}
		v := make([]gf.Elem, k)
		for _, name := range []string{"nofacs", "facs"} {
			var facs []gf.Elem
			if name == "facs" {
				facs = make([]gf.Elem, rank)
			}
			b.Run(fmt.Sprintf("rank=%d/%s", rank, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(v, vs[i%len(vs)])
					m.reduce(v, facs)
				}
			})
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
		m.AddOwned(gf.RandVector(f, 128, rng), nil)
	}
	out := make([]gf.Elem, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RandomCombinationInto(rng, out, nil)
	}
}
