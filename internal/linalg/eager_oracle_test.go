package linalg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// eagerMatrix is RankMatrix as it was before payloads were stored as they
// arrived: every stored payload row is eliminated on insert, alongside its
// coefficients, so the i-th payload row is the i-th echelon row's payload
// itself, and an emit or a Solve combines those rows directly. It is the
// oracle of TestPayloadMatchesEagerElimination and carries payloads only.
type eagerMatrix struct {
	f      gf.Field
	f2m    *gf.GF2m
	cols   int
	extra  int
	rows   [][]gf.Elem // coefficient parts, pivot columns strictly increasing
	pay    [][]byte    // payload parts, parallel to rows
	pivot  []int
	pivFac []gf.Elem
}

func newEagerMatrix(f gf.Field, cols, extra int) *eagerMatrix {
	f2m, _ := f.(*gf.GF2m)
	return &eagerMatrix{f: f, f2m: f2m, cols: cols, extra: extra}
}

func (m *eagerMatrix) Rank() int            { return len(m.rows) }
func (m *eagerMatrix) Full() bool           { return len(m.rows) == m.cols }
func (m *eagerMatrix) Row(i int) []gf.Elem  { return m.rows[i] }
func (m *eagerMatrix) Payload(i int) []byte { return m.pay[i] }

// addMulPayloads performs pay += Σ facs[i]·rows[i].
func (m *eagerMatrix) addMulPayloads(pay []byte, rows [][]byte, facs []gf.Elem) {
	if m.f2m != nil {
		m.f2m.AddMulSlices(pay, rows, facs)
		return
	}
	for i, c := range facs {
		m.f.AddMulSlice(pay, rows[i], c)
	}
}

// Add reduces a copy of coeffs and, if a pivot survives, stores it with
// a copy of payload eliminated by the same factors.
func (m *eagerMatrix) Add(coeffs []gf.Elem, payload []byte) bool {
	if m.Full() {
		return false
	}
	c := slices.Clone(coeffs)
	facs := make([]gf.Elem, len(m.rows))
	f := m.f
	for i, p := range m.pivot {
		if c[p] == 0 {
			continue
		}
		facs[i] = f.Mul(c[p], m.pivFac[i])
		f.AXPY(c, m.rows[i], facs[i])
	}
	p := slices.IndexFunc(c, func(e gf.Elem) bool { return e != 0 })
	if p < 0 {
		return false
	}
	rowP := bytes.Clone(payload)
	m.addMulPayloads(rowP, m.pay, facs)
	at := len(m.rows)
	for at > 0 && m.pivot[at-1] > p {
		at--
	}
	m.rows = slices.Insert(m.rows, at, c)
	m.pay = slices.Insert(m.pay, at, rowP)
	m.pivot = slices.Insert(m.pivot, at, p)
	m.pivFac = slices.Insert(m.pivFac, at, f.Neg(f.Inv(c[p])))
	return true
}

// RandomCombinationInto draws one factor per stored row, gf.Rand's draw
// (one masked Uint64 over GF(2^m)), and combines the rows with them.
func (m *eagerMatrix) RandomCombinationInto(rng *rand.Rand, coeffs []gf.Elem, pay []byte) bool {
	if len(m.rows) == 0 {
		return false
	}
	facs := make([]gf.Elem, len(m.rows))
	for i := range facs {
		if m.f2m != nil {
			facs[i] = gf.Elem(rng.Uint64() & uint64(m.f.Order()-1))
		} else {
			facs[i] = gf.Rand(m.f, rng)
		}
	}
	m.CombineInto(facs, coeffs, pay)
	return true
}

// CombineInto overwrites coeffs and pay with Σ facs[i]·(stored row i).
func (m *eagerMatrix) CombineInto(facs, coeffs []gf.Elem, pay []byte) {
	clear(coeffs)
	clear(pay)
	for i, c := range facs {
		m.f.AXPY(coeffs, m.rows[i], c)
	}
	m.addMulPayloads(pay, m.pay, facs)
}

// Solve back-substitutes on coefficients and payloads together.
func (m *eagerMatrix) Solve() ([][]byte, error) {
	if !m.Full() {
		return nil, ErrNotFullRank
	}
	f := m.f
	for i := m.cols - 1; i >= 0; i-- {
		row := m.rows[i]
		p := m.pivot[i]
		if c := row[p]; c != 1 {
			inv := f.Inv(c)
			f.Scale(row, inv)
			f.MulSlice(m.pay[i], inv)
			m.pivFac[i] = f.Neg(1)
		}
		for j := 0; j < i; j++ {
			above := m.rows[j]
			if c := above[p]; c != 0 {
				nc := f.Neg(c)
				f.AXPY(above, row, nc)
				f.AddMulSlice(m.pay[j], m.pay[i], nc)
			}
		}
	}
	out := make([][]byte, m.cols)
	for i := range out {
		out[i] = bytes.Clone(m.pay[i])
	}
	return out, nil
}

// TestPayloadMatchesEagerElimination feeds one insert stream to a
// RankMatrix and to the eager oracle and holds every payload-bearing
// output to the oracle's bytes: the rows stored, each echelon row's
// payload (PayloadInto), RandomCombinationInto and RandomFactorsInto +
// CombineInto from one seed, Solve, and all of them again after Solve and
// an Add that follows it. The stream mixes dense rows, rows with a random
// run of leading zeros (a pivot lands in the middle of the echelon
// order, and its transform row among the others) and combinations of
// stored rows (useless: nothing may change). The ranks cover one and two
// stored rows, a fused block of 64, the workload's 128, and 256 and 300
// on either side of a payload emit's stack block; the widths a single
// byte, a fused block's tail, one block, and the workload's 4 KiB. Each
// field takes a different path: GF(256) and GF(16) the kernels, F_251
// the generic loops.
func TestPayloadMatchesEagerElimination(t *testing.T) {
	for _, q := range []int{256, 16, 251} {
		for _, k := range []int{1, 2, 64, 128, 256, 300} {
			for _, r := range []int{1, 63, 64, 4096} {
				if (testing.Short() || core.RaceEnabled) && (q != 256 || k*r > 64*4096) {
					// One goroutine: the race detector has nothing to find
					// here, only seconds of field arithmetic to slow down.
					continue
				}
				t.Run(fmt.Sprintf("q=%d/k=%d/r=%d", q, k, r), func(t *testing.T) {
					checkAgainstEager(t, gf.MustNew(q), k, r, uint64(q*1_000_000+k*10_000+r))
				})
			}
		}
	}
}

func checkAgainstEager(t *testing.T, f gf.Field, k, r int, seed uint64) {
	rng := core.NewRand(seed)
	m, o := NewRankMatrix(f, k, r), newEagerMatrix(f, k, r)
	// Every row's payload costs rank·k·r to form: the small shapes are
	// checked whole after every insert, the large ones at a few ranks and
	// on a few rows.
	deep := k <= 64 && r <= 64
	checkpoints := map[int]bool{1: true, 2: true, k / 2: true, k - 1: true, k: true}
	compare := func(when string) {
		t.Helper()
		if m.Rank() != o.Rank() {
			t.Fatalf("%s: rank %d, oracle %d", when, m.Rank(), o.Rank())
		}
		got := make([]byte, r)
		for i := 0; i < m.Rank(); i++ {
			if !slices.Equal(m.Row(i), o.Row(i)) {
				t.Fatalf("%s: row %d differs from the oracle", when, i)
			}
			if !deep && i != 0 && i != m.Rank()/2 && i != m.Rank()-1 {
				continue
			}
			m.PayloadInto(i, got)
			if !bytes.Equal(got, o.Payload(i)) {
				t.Fatalf("%s: payload of row %d differs from the oracle", when, i)
			}
		}
		emit := func(e interface {
			RandomCombinationInto(*rand.Rand, []gf.Elem, []byte) bool
		}, s uint64) []any {
			c, p, src := make([]gf.Elem, k), make([]byte, r), core.NewRand(s)
			ok := e.RandomCombinationInto(src, c, p)
			return []any{ok, c, p, src.Uint64()}
		}
		s := rng.Uint64()
		if a, b := emit(m, s), emit(o, s); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: RandomCombinationInto differs from the oracle", when)
		}
		facs, ok := m.RandomFactorsInto(core.NewRand(s), make([]gf.Elem, k))
		if ok {
			c, p := make([]gf.Elem, k), make([]byte, r)
			m.CombineInto(facs, c, p)
			if want := emit(o, s); !reflect.DeepEqual([]any{true, c, p}, want[:3]) {
				t.Fatalf("%s: RandomFactorsInto + CombineInto differs from the oracle", when)
			}
		}
	}
	for step := 0; !m.Full(); step++ {
		if step > 100*k {
			t.Fatal("the stream did not reach full rank")
		}
		c, p := gf.RandVector(f, k, rng), gf.RandBytes(f, r, rng)
		switch rng.IntN(4) {
		case 0: // a combination of the stored rows: useless
			clear(c)
			for i := 0; i < m.Rank(); i++ {
				f.AXPY(c, m.Row(i), gf.Rand(f, rng))
			}
		case 1: // a run of leading zeros
			clear(c[:rng.IntN(k)])
		}
		want := o.Add(c, p)
		got := m.AddOwned(c, p)
		if got != want {
			t.Fatalf("step %d: helpful = %v, oracle %v", step, got, want)
		}
		if got && (deep || checkpoints[m.Rank()]) {
			compare(fmt.Sprintf("step %d, rank %d", step, m.Rank()))
		}
		if got && m.Rank() == k/2 {
			if _, err := m.Solve(); !errors.Is(err, ErrNotFullRank) {
				t.Fatalf("Solve below full rank: err = %v", err)
			}
		}
	}
	// A second Solve finds nothing left to reduce and must agree again.
	passes := 1
	if deep {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		got, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Solve pass %d differs from the oracle", pass)
		}
		c, p := gf.RandVector(f, k, rng), gf.RandBytes(f, r, rng)
		if o.Add(c, p) || m.AddOwned(c, p) {
			t.Fatal("a full-rank matrix took a row after Solve")
		}
		compare(fmt.Sprintf("after Solve pass %d", pass))
	}
}
