package linalg

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// emitSubject is one full-rank matrix seen through the three things the
// read-only test asks of it.
type emitSubject struct {
	// state is every stored row and payload, copied, rank first.
	state func() [][]byte
	// emitter returns an emit into buffers of its own; each call of the
	// emit returns the packet it built, as bytes.
	emitter func() func(*rand.Rand) []byte
	// solve is the matrix's Solve (nil for a rank-only matrix).
	solve func() ([][]byte, error)
}

// wordBytes appends words to b, little-endian.
func wordBytes(b []byte, words []uint64) []byte {
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// buildBitSubject fills a packed GF(2) matrix to full rank from seed.
func buildBitSubject(cols, extra int, seed uint64) emitSubject {
	f, rng := gf.MustNew(2), core.NewRand(seed)
	m := NewBitMatrixPayload(cols, extra)
	for !m.Full() {
		row := NewBitVec(cols)
		for i, c := range gf.RandVector(f, cols, rng) {
			if c == 1 {
				row.Set(i)
			}
		}
		m.AddPayload(row, gf.RandBytes(f, extra, rng))
	}
	s := emitSubject{
		state: func() [][]byte {
			out := [][]byte{{byte(m.Rank())}}
			for i := range m.Rank() {
				out = append(out, wordBytes(nil, m.Row(i)), append([]byte(nil), m.Payload(i)...))
			}
			return out
		},
		emitter: func() func(*rand.Rand) []byte {
			out, pay := NewBitVec(cols), make([]byte, extra)
			return func(r *rand.Rand) []byte {
				m.RandomCombinationInto(r, out, pay)
				return append(wordBytes(nil, out), pay...)
			}
		},
	}
	if extra > 0 {
		s.solve = m.Solve
	}
	return s
}

// buildByteSubject fills a byte-row GF(256) matrix to full rank from seed.
func buildByteSubject(cols, extra int, seed uint64) emitSubject {
	m, _ := payloadMatrix(256, cols, extra, cols, seed)
	s := emitSubject{
		state: func() [][]byte {
			out := [][]byte{{byte(m.Rank())}}
			for i := range m.Rank() {
				out = append(out, append([]byte(nil), gf.AsBytes(m.Row(i))...), payloadOf(m, i))
			}
			return out
		},
		emitter: func() func(*rand.Rand) []byte {
			c, pay := make([]gf.Elem, cols), make([]byte, extra)
			return func(r *rand.Rand) []byte {
				m.RandomCombinationInto(r, c, pay)
				return append(append([]byte(nil), gf.AsBytes(c)...), pay...)
			}
		},
	}
	if extra > 0 {
		s.solve = m.Solve
	}
	return s
}

// buildSlicedSubject fills a bit-sliced GF(256) matrix to full rank from
// seed. At these widths (at most four words a plane) it runs the tabbed
// kernels, whose emit streams its draws in arena order.
func buildSlicedSubject(cols, extra int, seed uint64) emitSubject {
	f, err := gf.NewGF2m(8)
	if err != nil {
		panic(err)
	}
	rng := core.NewRand(seed)
	m := NewSlicedMatrix(f, cols, extra)
	for !m.Full() {
		m.AddOwned(packBytes(f, gf.RandBytes(f, cols, rng)), packBytes(f, gf.RandBytes(f, extra, rng)))
	}
	s := emitSubject{
		state: func() [][]byte {
			out := [][]byte{{byte(m.Rank())}}
			for i := range m.Rank() {
				out = append(out, wordBytes(nil, m.Row(i)), wordBytes(nil, m.Payload(i)))
			}
			return out
		},
		emitter: func() func(*rand.Rand) []byte {
			out, pay := make(SlicedVec, m.Stride()), make(SlicedVec, m.PayStride())
			return func(r *rand.Rand) []byte {
				m.RandomCombinationInto(r, out, pay)
				return wordBytes(wordBytes(nil, out), pay)
			}
		},
	}
	if extra > 0 {
		s.solve = m.Solve
	}
	return s
}

// emitSequence is n emits from a fresh emitter on the stream of seed.
func emitSequence(s emitSubject, seed uint64, n int) [][]byte {
	emit, r := s.emitter(), core.NewRand(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = emit(r)
	}
	return out
}

// TestEmitIsReadOnly pins the contract the sharded wake phase rests on:
// an emit (RandomCombinationInto) reads its matrix and writes only the
// caller's buffers, so two goroutines may emit from one matrix at once.
// Every backend — packed bits, byte rows, bit-sliced with its table
// kernels — runs rank-only and with payloads, at a whole-k width and at a
// generation's g = 4; rank-only, packed bits also at three words a row
// (the general loop) and four (its own loop); byte rows at k = 128, also
// with payloads, and with payloads at k = 300, past the stack block an
// emit folds its factors in.
// Each goroutine draws from its own stream into its own buffers: its
// packets must be the ones a serial run from the same seed emits, and the
// matrix must come out unchanged — its rank, every row and payload, and a
// Solve that agrees with an identical matrix nobody emitted from. Under
// -race a write to matrix-owned scratch is a reported race even where the
// bytes happen to agree.
func TestEmitIsReadOnly(t *testing.T) {
	const perGoroutine = 64
	type shape struct{ cols, extra int }
	common := []shape{{100, 0}, {100, 70}, {4, 0}, {4, 70}}
	backends := []struct {
		name  string
		build func(cols, extra int, seed uint64) emitSubject
		wide  []shape // shapes besides the common ones
	}{
		{"bit", buildBitSubject, []shape{{160, 0}, {256, 0}}},
		{"byte-rows", buildByteSubject, []shape{{128, 0}, {128, 70}, {300, 70}}},
		{"sliced", buildSlicedSubject, nil},
	}
	for _, b := range backends {
		for _, sh := range slices.Concat(common, b.wide) {
			cols, extra := sh.cols, sh.extra
			t.Run(fmt.Sprintf("%s/k=%d/extra=%d", b.name, cols, extra), func(t *testing.T) {
				seed := uint64(cols*1000 + extra)
				s, twin := b.build(cols, extra, seed), b.build(cols, extra, seed)
				before := s.state()
				seeds := []uint64{seed + 1, seed + 2}
				want := make([][][]byte, len(seeds))
				for i, sd := range seeds {
					want[i] = emitSequence(s, sd, perGoroutine)
				}
				got := make([][][]byte, len(seeds))
				var start, done sync.WaitGroup
				start.Add(1)
				for i, sd := range seeds {
					done.Add(1)
					go func() {
						defer done.Done()
						start.Wait()
						got[i] = emitSequence(s, sd, perGoroutine)
					}()
				}
				start.Done()
				done.Wait()
				for i := range seeds {
					for j := range want[i] {
						if !reflect.DeepEqual(got[i][j], want[i][j]) {
							t.Fatalf("goroutine %d, emit %d: concurrent packet differs from the serial one", i, j)
						}
					}
				}
				if after := s.state(); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(after, twin.state()) {
					t.Fatal("emitting changed the matrix")
				}
				if s.solve == nil {
					return
				}
				gotSolve, err := s.solve()
				if err != nil {
					t.Fatal(err)
				}
				wantSolve, err := twin.solve()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotSolve, wantSolve) {
					t.Fatal("Solve after the emits differs from an untouched matrix's")
				}
			})
		}
	}
}

// TestEmitRefusesForeignSource: every coefficient draw site takes the
// generator of a core.NewRand stream, so a *rand.Rand on any other
// source is a caller-side bug. Each site — the packed-bit emits of one,
// two and four words a row and the general one with payloads, byte-row
// combinations and factors, bit-sliced emits with subset tables and
// without — panics with a message naming core.NewRand before it writes
// the caller's buffers, which a core.NewRand stream's emit does write.
func TestEmitRefusesForeignSource(t *testing.T) {
	const fill = 0xEE
	rng := core.NewRand(1)
	gf256 := slicedTestField(t, 8)
	// Each site is an emit and the caller's buffers it writes.
	type site struct {
		emit  func(*rand.Rand)
		bytes [][]byte
		words [][]uint64
	}
	bit := func(cols, extra int) site {
		m := NewBitMatrixPayload(cols, extra)
		for m.Rank() < min(cols, 20) {
			v := NewBitVec(cols)
			for j := range cols {
				if rng.Uint64()&1 == 1 {
					v.Set(j)
				}
			}
			m.AddPayload(v, gf.RandBytes(gf.MustNew(2), extra, rng))
		}
		out, pay := NewBitVec(cols), make([]byte, extra)
		return site{func(r *rand.Rand) { m.RandomCombinationInto(r, out, pay) }, [][]byte{pay}, [][]uint64{out}}
	}
	rows := func(extra int, factors bool) site {
		m, _ := payloadMatrix(256, 40, extra, 20, 2)
		c, pay := make([]gf.Elem, 40), make([]byte, extra)
		if factors {
			return site{func(r *rand.Rand) { m.RandomFactorsInto(r, c) }, [][]byte{gf.AsBytes(c)}, nil}
		}
		return site{func(r *rand.Rand) { m.RandomCombinationInto(r, c, pay) }, [][]byte{gf.AsBytes(c), pay}, nil}
	}
	sliced := func(cols, extra int) site {
		m := NewSlicedMatrix(gf256, cols, extra)
		for m.Rank() < 20 {
			m.AddOwned(packBytes(gf256, gf.RandBytes(gf256, cols, rng)), packBytes(gf256, gf.RandBytes(gf256, extra, rng)))
		}
		out, pay := make(SlicedVec, m.Stride()), make(SlicedVec, m.PayStride())
		return site{func(r *rand.Rand) { m.RandomCombinationInto(r, out, pay) }, nil, [][]uint64{out, pay}}
	}
	for name, s := range map[string]site{
		"bit/1word":             bit(16, 0),
		"bit/2words":            bit(128, 0),
		"bit/4words":            bit(256, 0),
		"bit/general+payload":   bit(16, 5),
		"rows/rank-only":        rows(0, false),
		"rows/payload":          rows(64, false),
		"rows/factors":          rows(64, true),
		"sliced/tabbed+payload": sliced(40, 24),
		"sliced/untabbed":       sliced(300, 0),
	} {
		t.Run(name, func(t *testing.T) {
			const fillWord = fill * 0x0101010101010101
			untouched := func() bool {
				for _, b := range s.bytes {
					if slices.ContainsFunc(b, func(x byte) bool { return x != fill }) {
						return false
					}
				}
				for _, w := range s.words {
					if slices.ContainsFunc(w, func(x uint64) bool { return x != fillWord }) {
						return false
					}
				}
				return true
			}
			refill := func() {
				for _, b := range s.bytes {
					for i := range b {
						b[i] = fill
					}
				}
				for _, w := range s.words {
					for i := range w {
						w[i] = fillWord
					}
				}
			}
			refill()
			if s.emit(core.NewRand(3)); untouched() {
				t.Fatal("the emit on a core.NewRand stream wrote nothing: the check below would prove nothing")
			}
			refill()
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "core.NewRand") {
					t.Fatalf("panic %q, want one naming core.NewRand", msg)
				}
				if !untouched() {
					t.Fatal("the refused emit wrote the caller's buffers")
				}
			}()
			s.emit(rand.New(rand.NewPCG(1, 2)))
		})
	}
}
