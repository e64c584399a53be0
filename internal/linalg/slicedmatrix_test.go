package linalg

import (
	"bytes"
	"testing"

	"math/rand/v2"

	"algossip/internal/core/coretest"
	"algossip/internal/gf"
)

// slicedTestField builds GF(2^m) directly for the sliced backend tests.
func slicedTestField(t testing.TB, m int) *gf.GF2m {
	t.Helper()
	f, err := gf.NewGF2m(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// packCoeffs packs a []gf.Elem coefficient row into a fresh SlicedVec.
func packCoeffs(f *gf.GF2m, coeffs []gf.Elem) SlicedVec {
	b := make([]byte, len(coeffs))
	for i, c := range coeffs {
		b[i] = byte(c)
	}
	v := make(SlicedVec, f.M()*gf.SlicedWords(len(coeffs)))
	f.PackSliced(v, b)
	return v
}

// packBytes packs a []byte coefficient row into a fresh SlicedVec.
func packBytes(f *gf.GF2m, row []byte) SlicedVec {
	v := make(SlicedVec, f.M()*gf.SlicedWords(len(row)))
	f.PackSliced(v, row)
	return v
}

// TestSlicedMatchesRankMatrix drives a SlicedMatrix and a generic
// RankMatrix with the same random row stream for m ∈ {2, 4, 8} and
// requires identical helpfulness verdicts, ranks, WouldHelp answers,
// random-combination emissions (same RNG consumption, on a core.NewRand
// stream and on a foreign source alike), and Solve output.
// Widths straddle the one-word boundary (cols/extra ≤ 64 and > 64), and
// payloads go in and come out as bit-planes.
func TestSlicedMatchesRankMatrix(t *testing.T) {
	t.Run("planes", testSlicedMatchesRankMatrix)
}

func testSlicedMatchesRankMatrix(t *testing.T) {
	cases := []struct{ m, cols, extra int }{
		{2, 9, 5},
		{4, 33, 70},
		{4, 100, 40}, // m=4 two-block: exercises the lo/hi pivot partition
		{8, 70, 17},  // m=8 two-block: the fused kernels
		{8, 130, 130},
	}
	for _, tc := range cases {
		f := slicedTestField(t, tc.m)
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.m), uint64(tc.cols)))
			gen := NewRankMatrix(f, tc.cols, tc.extra)
			slc := NewSlicedMatrix(f, tc.cols, tc.extra)

			emitA := rand.New(rand.NewPCG(7, 9))
			emitB := rand.New(rand.NewPCG(7, 9))
			for step := 0; gen.Rank() < tc.cols; step++ {
				if step > 200*tc.cols {
					t.Fatal("matrices failed to reach full rank")
				}
				coeffs := gf.RandVector(f, tc.cols, rng)
				payload := gf.RandBytes(f, tc.extra, rng)
				sc, sp := packCoeffs(f, coeffs), packBytes(f, payload)

				if gen.WouldHelp(coeffs) != slc.WouldHelp(sc) {
					t.Fatalf("step %d: WouldHelp disagrees", step)
				}
				gotG := gen.Add(coeffs, payload)
				gotS := slc.AddOwned(sc, sp)
				if gotG != gotS {
					t.Fatalf("step %d: helpfulness disagrees (generic %v, sliced %v)", step, gotG, gotS)
				}
				if gen.Rank() != slc.Rank() {
					t.Fatalf("step %d: rank diverged (%d vs %d)", step, gen.Rank(), slc.Rank())
				}
				// Stored rows must be value-identical: emitting with equally
				// seeded RNGs draws the same coefficients over the same rows.
				if gen.Rank() > 0 {
					wantC, wantP := make([]gf.Elem, tc.cols), make([]byte, tc.extra)
					gen.RandomCombinationInto(emitA, wantC, wantP)
					outC := make(SlicedVec, slc.Stride())
					outP := make(SlicedVec, slc.PayStride())
					slc.RandomCombinationInto(emitB, outC, outP)
					gotC := make([]byte, tc.cols)
					f.UnpackSliced(gotC, outC)
					for i := range wantC {
						if gotC[i] != byte(wantC[i]) {
							t.Fatalf("step %d: emitted coefficient %d differs", step, i)
						}
					}
					gotP := make([]byte, tc.extra)
					f.UnpackSliced(gotP, outP)
					if !bytes.Equal(gotP, wantP) {
						t.Fatalf("step %d: emitted payload differs", step)
					}
					// Those were foreign sources. Each backend must emit the
					// same from the same draws on a core.NewRand stream.
					seed := rng.Uint64()
					coretest.BothSides(t, seed, func(r *rand.Rand) any {
						c, p := make([]gf.Elem, tc.cols), make([]byte, tc.extra)
						gen.RandomCombinationInto(r, c, p)
						return []any{c, p}
					})
					coretest.BothSides(t, seed, func(r *rand.Rand) any {
						c, p := make(SlicedVec, slc.Stride()), make(SlicedVec, slc.PayStride())
						slc.RandomCombinationInto(r, c, p)
						return []any{c, p}
					})
				}
			}

			wantSolve, err := gen.Solve()
			if err != nil {
				t.Fatal(err)
			}
			gotSolve, err := slc.Solve()
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantSolve {
				if !bytes.Equal(gotSolve[i], wantSolve[i]) {
					t.Fatalf("Solve row %d differs", i)
				}
			}
			// Solve preserves the row space: a combination of old rows is
			// still unhelpful, a fresh unit row outside the space is caught
			// consistently.
			if slc.WouldHelp(append(SlicedVec(nil), slc.Row(0)...)) {
				t.Fatal("row space changed by Solve")
			}
		})
	}
}

// TestSlicedMatrixRejectsDependentRows checks basic echelon behavior
// without the generic reference in the loop.
func TestSlicedMatrixRejectsDependentRows(t *testing.T) {
	f := slicedTestField(t, 8)
	m := NewSlicedMatrix(f, 10, 0)
	row := make([]byte, 10)
	row[3] = 7
	v := packBytes(f, row)
	if !m.AddOwned(append(SlicedVec(nil), v...), nil) {
		t.Fatal("first row must be helpful")
	}
	// Any scalar multiple reduces to zero.
	scaled := make([]byte, 10)
	scaled[3] = byte(f.Mul(7, 29))
	if m.AddOwned(packBytes(f, scaled), nil) {
		t.Fatal("dependent row accepted")
	}
	if m.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", m.Rank())
	}
	if !m.WouldHelp(packBytes(f, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})) {
		t.Fatal("independent unit row must help")
	}
}

// TestSlicedMatrixZeroAllocSteadyState pins the no-allocation contract of
// the sliced hot path once the matrix is full.
func TestSlicedMatrixZeroAllocSteadyState(t *testing.T) {
	f := slicedTestField(t, 8)
	const cols, extra = 96, 64
	m := NewSlicedMatrix(f, cols, extra)
	rng := rand.New(rand.NewPCG(3, 5))
	for guard := 0; !m.Full(); guard++ {
		if guard > 100*cols {
			t.Fatal("never reached full rank")
		}
		m.AddOwned(packBytes(f, gf.RandBytes(f, cols, rng)), packBytes(f, gf.RandBytes(f, extra, rng)))
	}
	out := make(SlicedVec, m.Stride())
	pay := make(SlicedVec, m.PayStride())
	allocs := testing.AllocsPerRun(100, func() {
		m.RandomCombinationInto(rng, out, pay)
		if m.WouldHelp(out) {
			t.Fatal("full matrix cannot be helped")
		}
		if m.AddOwned(out, pay) {
			t.Fatal("full matrix cannot gain rank")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady state allocated %.1f per cycle, want 0", allocs)
	}
}
