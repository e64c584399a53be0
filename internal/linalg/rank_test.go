package linalg

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"algossip/internal/core"
	"algossip/internal/core/coretest"
	"algossip/internal/gf"
)

func TestRankMatrixBasic(t *testing.T) {
	f := gf.MustNew(256)
	m := NewRankMatrix(f, 3, 0)
	if m.Rank() != 0 || m.Full() {
		t.Fatal("fresh matrix should be empty")
	}
	if !m.Add([]gf.Elem{1, 2, 3}, nil) {
		t.Fatal("first row must be helpful")
	}
	if m.Add([]gf.Elem{1, 2, 3}, nil) {
		t.Fatal("duplicate row must not be helpful")
	}
	if m.Add([]gf.Elem{2, 4, 6}, nil) {
		t.Fatal("scaled row must not be helpful")
	}
	if !m.Add([]gf.Elem{0, 1, 1}, nil) {
		t.Fatal("independent row must be helpful")
	}
	if m.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", m.Rank())
	}
	if !m.Add([]gf.Elem{0, 0, 5}, nil) {
		t.Fatal("third independent row must be helpful")
	}
	if !m.Full() {
		t.Fatal("matrix should be full rank")
	}
	if m.Add([]gf.Elem{7, 7, 7}, nil) {
		t.Fatal("no row can help a full-rank matrix")
	}
}

func TestRankMatrixZeroRow(t *testing.T) {
	f := gf.MustNew(4)
	m := NewRankMatrix(f, 4, 0)
	if m.Add(make([]gf.Elem, 4), nil) {
		t.Fatal("zero row must not increase rank")
	}
}

func TestRankMatrixWouldHelp(t *testing.T) {
	f := gf.MustNew(16)
	m := NewRankMatrix(f, 3, 2)
	m.Add([]gf.Elem{1, 1, 0}, []byte{9, 9})
	if !m.WouldHelp([]gf.Elem{0, 1, 1}) {
		t.Fatal("independent coeffs should help")
	}
	if m.WouldHelp([]gf.Elem{2, 2, 0}) {
		t.Fatal("dependent coeffs should not help")
	}
	if m.Rank() != 1 {
		t.Fatal("WouldHelp must not mutate")
	}
}

// TestSolveRoundTrip encodes k random messages as random combinations and
// checks that Solve recovers them exactly — decode(encode(x)) == x.
func TestSolveRoundTrip(t *testing.T) {
	for _, q := range []int{2, 4, 16, 256, 101} {
		f := gf.MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			rng := core.NewRand(99)
			const k, r = 8, 5
			msgs := make([][]byte, k)
			for i := range msgs {
				msgs[i] = gf.RandBytes(f, r, rng)
			}
			m := NewRankMatrix(f, k, r)
			guard := 0
			for !m.Full() {
				guard++
				if guard > 10000 {
					t.Fatal("decoder did not reach full rank")
				}
				coeffs := gf.RandVector(f, k, rng)
				pay := make([]byte, r)
				for i, c := range coeffs {
					f.AddMulSlice(pay, msgs[i], c)
				}
				m.Add(coeffs, pay)
			}
			got, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			for i := range msgs {
				for j := range msgs[i] {
					if got[i][j] != msgs[i][j] {
						t.Fatalf("decoded message %d differs at symbol %d: got %d want %d",
							i, j, got[i][j], msgs[i][j])
					}
				}
			}
		})
	}
}

func TestSolveNotFullRank(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 1)
	m.Add([]gf.Elem{1, 0, 0}, []byte{1})
	if _, err := m.Solve(); !errors.Is(err, ErrNotFullRank) {
		t.Fatalf("Solve on deficient matrix: err = %v, want ErrNotFullRank", err)
	}
}

// TestRandomCombinationStaysInRowSpace checks that every emitted combination
// is dependent on the stored rows (never helpful to the emitter itself).
func TestRandomCombinationStaysInRowSpace(t *testing.T) {
	f := gf.MustNew(256)
	rng := core.NewRand(5)
	m := NewRankMatrix(f, 6, 3)
	for i := 0; i < 4; i++ {
		m.Add(gf.RandVector(f, 6, rng), gf.RandBytes(f, 3, rng))
	}
	coeffs, pay := make([]gf.Elem, 6), make([]byte, 3)
	for trial := 0; trial < 200; trial++ {
		if !m.RandomCombinationInto(rng, coeffs, pay) {
			t.Fatal("non-empty matrix emitted nothing")
		}
		if m.WouldHelp(coeffs) {
			t.Fatal("a node's own combination can never be helpful to itself")
		}
	}
}

func TestRandomCombinationEmpty(t *testing.T) {
	f := gf.MustNew(4)
	m := NewRankMatrix(f, 3, 0)
	if m.RandomCombinationInto(core.NewRand(1), make([]gf.Elem, 3), nil) {
		t.Fatal("empty matrix must emit nothing")
	}
}

// TestRankInvariantQuick: rank never exceeds min(#rows added, cols), and is
// invariant under adding linear combinations of existing rows.
func TestRankInvariantQuick(t *testing.T) {
	f := gf.MustNew(16)
	rng := core.NewRand(13)
	check := func(seed uint64) bool {
		r := core.NewRand(seed)
		cols := 1 + r.IntN(10)
		m := NewRankMatrix(f, cols, 0)
		added := 0
		for i := 0; i < 20; i++ {
			m.Add(gf.RandVector(f, cols, r), nil)
			added++
			if m.Rank() > added || m.Rank() > cols {
				return false
			}
		}
		// Adding a combination of existing rows must never change the rank.
		before := m.Rank()
		if coeffs := make([]gf.Elem, cols); m.RandomCombinationInto(rng, coeffs, nil) {
			m.Add(coeffs, nil)
		}
		return m.Rank() == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddPanicsOnWidthMismatch(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on width mismatch")
		}
	}()
	m.Add([]gf.Elem{1, 2}, []byte{0})
}

func TestAddPanicsOnPayloadMismatch(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on payload width mismatch")
		}
	}()
	m.Add([]gf.Elem{1, 0, 0}, []byte{0})
}

// TestSolveAfterPartialThenMore ensures Solve's in-place reduction preserves
// correctness if more rows arrive after a failed decode attempt.
func TestSolveIdempotent(t *testing.T) {
	f := gf.MustNew(256)
	rng := core.NewRand(77)
	const k, r = 5, 3
	msgs := make([][]byte, k)
	for i := range msgs {
		msgs[i] = gf.RandBytes(f, r, rng)
	}
	emit := func() ([]gf.Elem, []byte) {
		coeffs := gf.RandVector(f, k, rng)
		pay := make([]byte, r)
		for i, c := range coeffs {
			f.AddMulSlice(pay, msgs[i], c)
		}
		return coeffs, pay
	}
	m := NewRankMatrix(f, k, r)
	for m.Rank() < k-1 {
		m.Add(emit())
	}
	if _, err := m.Solve(); err == nil {
		t.Fatal("expected ErrNotFullRank")
	}
	for !m.Full() {
		m.Add(emit())
	}
	got1, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := m.Solve() // solving twice must agree
	if err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		for j := range msgs[i] {
			if got1[i][j] != msgs[i][j] || got2[i][j] != msgs[i][j] {
				t.Fatalf("decode mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// payloadOf is the payload of m's echelon row i, in a buffer of its own
// (nil on a rank-only matrix).
func payloadOf(m *RankMatrix, i int) []byte {
	if m.extra == 0 {
		return nil
	}
	b := make([]byte, m.extra)
	m.PayloadInto(i, b)
	return b
}

// payloadMatrix returns a cols x extra byte-row matrix over GF(q) holding
// rank random rows, and the generator it drew them from.
func payloadMatrix(q, cols, extra, rank int, seed uint64) (*RankMatrix, *rand.Rand) {
	f := gf.MustNew(q)
	rng := core.NewRand(seed)
	m := NewRankMatrix(f, cols, extra)
	for m.Rank() < rank {
		m.Add(gf.RandVector(f, cols, rng), gf.RandBytes(f, extra, rng))
	}
	return m, rng
}

// TestSplitEmitMatchesRandomCombination: RandomFactorsInto followed by
// CombineInto is RandomCombinationInto — the same bytes from the same
// draws, and the generator left in the same state — on both sides of
// core.Generator's selection. The payload width covers a fused 64-byte
// block and a tail; 251 is the field with no fused kernel; rank 130 takes
// RandomCombinationInto through two whole blocks of draws and a part.
func TestSplitEmitMatchesRandomCombination(t *testing.T) {
	for _, tc := range []struct{ q, cols, rank int }{{4, 12, 9}, {256, 12, 9}, {251, 12, 9}, {256, 150, 130}, {251, 150, 130}} {
		q := tc.q
		m, _ := payloadMatrix(q, tc.cols, 100, tc.rank, uint64(q))
		whole := func(r *rand.Rand) any {
			c, p := make([]gf.Elem, m.cols), make([]byte, m.extra)
			if !m.RandomCombinationInto(r, c, p) {
				t.Fatal("non-empty matrix refused to emit")
			}
			return []any{c, p, r.Uint64()}
		}
		split := func(r *rand.Rand) any {
			c, p := slices.Repeat([]gf.Elem{0xEE}, m.cols), bytes.Repeat([]byte{0xEE}, m.extra)
			facs, ok := m.RandomFactorsInto(r, make([]gf.Elem, m.cols))
			if !ok || len(facs) != m.Rank() {
				t.Fatalf("RandomFactorsInto returned %d factors, %v, at rank %d", len(facs), ok, m.Rank())
			}
			next := r.Uint64() // every draw belongs to the first half
			m.CombineInto(facs, c, p)
			return []any{c, p, next}
		}
		for seed := uint64(0); seed < 8; seed++ {
			coretest.BothSides(t, seed, whole)
			coretest.BothSides(t, seed, split)
			if a, b := whole(core.NewRand(seed)), split(core.NewRand(seed)); !reflect.DeepEqual(a, b) {
				t.Fatalf("GF(%d) seed %d: whole emit %v\nsplit emit %v", q, seed, a, b)
			}
		}
	}
}

// TestCombinePayloadAfterInsertPanics pins the invariant a deferred fill
// rests on: the factors index the stored rows, so a row stored between
// the halves — which shifts them — must be refused, not combined wrongly.
func TestCombinePayloadAfterInsertPanics(t *testing.T) {
	m, rng := payloadMatrix(256, 8, 64, 4, 1)
	c, p := make([]gf.Elem, 8), make([]byte, 64)
	facs, _ := m.RandomFactorsInto(rng, make([]gf.Elem, 8))
	for rank := m.Rank(); m.Rank() == rank; {
		m.Add(gf.RandVector(gf.MustNew(256), 8, rng), make([]byte, 64))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CombineInto accepted factors drawn before an insert")
		}
	}()
	m.CombineInto(facs, c, p)
}

// interleavedReduce is the elimination RankMatrix ran before it split the
// halves — each stored row's factor applied to coefficients and payload
// together, row by row, through the field's scalar operations — kept as
// the oracle for the coefficient-first one.
func interleavedReduce(f gf.Field, m *RankMatrix, coeffs []gf.Elem, pay []byte) {
	for i := 0; i < m.Rank(); i++ {
		row, p := m.Row(i), 0
		for row[p] == 0 {
			p++
		}
		if coeffs[p] == 0 {
			continue
		}
		factor := f.Neg(f.Div(coeffs[p], row[p]))
		for j := range coeffs {
			coeffs[j] = f.Add(coeffs[j], f.Mul(factor, row[j]))
		}
		for j, s := range payloadOf(m, i) {
			pay[j] = byte(f.Add(gf.Elem(pay[j]), f.Mul(factor, gf.Elem(s))))
		}
	}
}

// TestAddReducesPayloadOnlyWhenHelpful: a row that reduces to zero never
// has its payload looked at — the argument (poison that is no combination
// of anything stored) and every stored row come back untouched — and a
// helpful row is stored exactly as the interleaved elimination leaves it,
// for Add and AddOwned alike.
func TestAddReducesPayloadOnlyWhenHelpful(t *testing.T) {
	const cols, extra = 10, 100
	for _, q := range []int{4, 16, 256, 251} {
		f := gf.MustNew(q)
		rng := core.NewRand(uint64(q))
		m := NewRankMatrix(f, cols, extra)
		for step := 0; !m.Full(); step++ {
			// Useless: a combination of the stored coefficient rows.
			if m.Rank() > 0 {
				c := make([]gf.Elem, cols)
				for i := 0; i < m.Rank(); i++ {
					f.AXPY(c, m.Row(i), gf.Rand(f, rng))
				}
				poison := bytes.Repeat([]byte{byte(q - 1)}, extra)
				stored := make([][]byte, m.Rank())
				for i := range stored {
					stored[i] = payloadOf(m, i)
				}
				if m.AddOwned(c, poison) {
					t.Fatalf("GF(%d) step %d: a combination of stored rows was helpful", q, step)
				}
				if !bytes.Equal(poison, bytes.Repeat([]byte{byte(q - 1)}, extra)) {
					t.Fatalf("GF(%d) step %d: a useless AddOwned wrote its payload argument", q, step)
				}
				for i := range stored {
					if !bytes.Equal(stored[i], payloadOf(m, i)) {
						t.Fatalf("GF(%d) step %d: a useless AddOwned changed stored row %d", q, step, i)
					}
				}
			}
			c, p := gf.RandVector(f, cols, rng), gf.RandBytes(f, extra, rng)
			wantC, wantP := slices.Clone(c), bytes.Clone(p)
			interleavedReduce(f, m, wantC, wantP)
			var helped bool
			if step%2 == 0 {
				helped = m.AddOwned(c, p)
			} else {
				helped = m.Add(c, p)
			}
			if helped != !gf.IsZeroVector(wantC) {
				t.Fatalf("GF(%d) step %d: helpful = %v against the oracle", q, step, helped)
			}
			if !helped {
				continue
			}
			at := slices.IndexFunc(m.rows, func(row []gf.Elem) bool { return slices.Equal(row, wantC) })
			if at < 0 || !bytes.Equal(payloadOf(m, at), wantP) {
				t.Fatalf("GF(%d) step %d: stored row differs from the interleaved elimination", q, step)
			}
		}
	}
}

// The payload benchmarks cycle 32 matrices of k = 128, r = 4096 — 16 MiB
// of stored rows, the payload_gf256 working set — so every insert and
// every emit streams its rows from the outer cache as a trial does, not
// from wherever the previous iteration left them.
const (
	benchPayK, benchPayR, benchPayNodes = 128, 4096, 32
)

func benchPayloadMatrices(b *testing.B, rank int) []*RankMatrix {
	ms := make([]*RankMatrix, benchPayNodes)
	for i := range ms {
		ms[i], _ = payloadMatrix(256, benchPayK, benchPayR, rank, uint64(i))
	}
	return ms
}

// BenchmarkRankMatrixEmitPayloadGF256 is RandomCombinationInto at full
// rank: 128 stored rows combined into one packet.
func BenchmarkRankMatrixEmitPayloadGF256(b *testing.B) {
	ms := benchPayloadMatrices(b, benchPayK)
	rng := core.NewRand(1)
	c, p := make([]gf.Elem, benchPayK), make([]byte, benchPayR)
	b.SetBytes(benchPayK * benchPayR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms[i%len(ms)].RandomCombinationInto(rng, c, p)
	}
}

// truncate drops every stored row of m but the first rank stored — the
// insert benchmark's undo, Reset's partial counterpart. The rows it drops
// must be the last in echelon order too, and no Solve may have mixed them
// into the others. It touches every per-row slice RankMatrix keeps, and
// no arena: a row's arena slot follows from the rank.
func (m *RankMatrix) truncate(rank int) {
	m.rows, m.pivot, m.pivFac = m.rows[:rank], m.pivot[:rank], m.pivFac[:rank]
	if m.extra > 0 {
		m.raw, m.xform = m.raw[:rank], m.xform[:rank]
	}
}

// TestTruncateUndoesAnInsert holds the benchmarks' undo to its claim: a
// helpful insert and a truncate back leave every slice of the matrix at
// the length it had — found by reflection, so a per-row slice or an
// arena added later is held too — and the matrix emits, and stores, what
// an identical one that never took the row does.
func TestTruncateUndoesAnInsert(t *testing.T) {
	const k, r = 16, 100
	f := gf.MustNew(256)
	build := func() *RankMatrix {
		rng := core.NewRand(3)
		m := NewRankMatrix(f, k, r)
		for m.Rank() < k-1 {
			c := gf.RandVector(f, k, rng)
			c[k-1] = 0
			m.Add(c, gf.RandBytes(f, r, rng))
		}
		return m
	}
	lens := func(m *RankMatrix) map[string]int {
		out := map[string]int{}
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Slice {
				out[v.Type().Field(i).Name] = v.Field(i).Len()
			}
		}
		return out
	}
	m, twin := build(), build()
	before := lens(m)
	if !m.AddOwned(gf.RandVector(f, k, core.NewRand(4)), gf.RandBytes(f, r, core.NewRand(5))) {
		t.Fatal("a row with a new pivot column was not helpful")
	}
	m.truncate(k - 1)
	if after := lens(m); !reflect.DeepEqual(after, before) {
		t.Fatalf("slice lengths after insert and truncate %v, before %v", after, before)
	}
	for i := 0; i < m.Rank(); i++ {
		if !slices.Equal(m.Row(i), twin.Row(i)) || !bytes.Equal(payloadOf(m, i), payloadOf(twin, i)) {
			t.Fatalf("row %d differs from the twin's after insert and truncate", i)
		}
	}
	emit := func(m *RankMatrix) []any {
		c, p := make([]gf.Elem, k), make([]byte, r)
		m.RandomCombinationInto(core.NewRand(6), c, p)
		return []any{c, p}
	}
	if !reflect.DeepEqual(emit(m), emit(twin)) {
		t.Fatal("emit after insert and truncate differs from the twin's")
	}
	// The freed slots take the next row as a fresh matrix's would.
	c, p := gf.RandVector(f, k, core.NewRand(7)), gf.RandBytes(f, r, core.NewRand(8))
	m.Add(c, p)
	twin.Add(c, p)
	if !reflect.DeepEqual(emit(m), emit(twin)) {
		t.Fatal("an insert into truncated slots differs from the twin's")
	}
}

// BenchmarkRankMatrixAddPayloadGF256 is a helpful AddOwned against 127
// stored rows: the coefficient elimination, the row's transform and its
// payload's copy into the arena. Every stored row is zero in the last
// column, so an offered row always finds its pivot there and lands last,
// in arrival and in echelon order; the benchmark then takes it off again
// (truncate, which only a test inside the package can call), so the
// matrices are the same for any b.N.
func BenchmarkRankMatrixAddPayloadGF256(b *testing.B) {
	const rank = benchPayK - 1
	f := gf.MustNew(256)
	rng := core.NewRand(1)
	ms := make([]*RankMatrix, benchPayNodes)
	for i := range ms {
		ms[i] = NewRankMatrix(f, benchPayK, benchPayR)
		for ms[i].Rank() < rank {
			c := gf.RandVector(f, benchPayK, rng)
			c[rank] = 0
			ms[i].Add(c, gf.RandBytes(f, benchPayR, rng))
		}
	}
	c, p := make([]gf.Elem, benchPayK), gf.RandBytes(f, benchPayR, rng)
	b.SetBytes(rank * benchPayR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range c {
			c[j] = gf.Elem(rng.Uint64()) | 1
		}
		m := ms[i%len(ms)]
		if !m.AddOwned(c, p) {
			b.Fatal("a row with a new pivot column was not helpful")
		}
		m.truncate(rank)
	}
}

// BenchmarkRankMatrixSolvePayloadGF256 is a decode: Solve on a full-rank
// k = 128, r = 4096 matrix. Solve reduces its matrix in place, so each
// iteration first refills one of the matrices from its recorded rows,
// outside the timer.
func BenchmarkRankMatrixSolvePayloadGF256(b *testing.B) {
	f := gf.MustNew(256)
	type stream struct {
		m      *RankMatrix
		coeffs [][]gf.Elem
		pays   [][]byte
	}
	ss := make([]stream, benchPayNodes)
	for i := range ss {
		rng := core.NewRand(uint64(i))
		s := &ss[i]
		s.m = NewRankMatrix(f, benchPayK, benchPayR)
		for s.m.Rank() < benchPayK {
			c, p := gf.RandVector(f, benchPayK, rng), gf.RandBytes(f, benchPayR, rng)
			if s.m.WouldHelp(c) {
				s.coeffs, s.pays = append(s.coeffs, c), append(s.pays, p)
				s.m.Add(c, p)
			}
		}
	}
	b.SetBytes(benchPayK * benchPayR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &ss[i%len(ss)]
		if i >= len(ss) {
			b.StopTimer()
			s.m.Reset()
			for j, c := range s.coeffs {
				s.m.Add(c, s.pays[j])
			}
			b.StartTimer()
		}
		if _, err := s.m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
