package linalg

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// resetSubject is one matrix seen through what the reset test asks of
// it: feed inserts a stream of rows drawn from seed — helpful ones and
// combinations of what it holds, through every insert and query path —
// emitting after each and solving at full rank, and returns all it
// answered, as bytes; reset is the matrix's Reset.
type resetSubject struct {
	m     any
	feed  func(seed uint64) []byte
	reset func()
}

// poisonAll fills every integer slice the matrix holds, up to its
// capacity, with 0xA5 bytes: the arenas and the scratch, and every per-row
// list behind its length — found by reflection, so memory a later change
// adds is poisoned too.
func poisonAll(m any) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		switch f.Type().Elem().Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint64, reflect.Int32, reflect.Int:
		default:
			continue
		}
		// An unexported field is read-only through reflect; address it.
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		f = f.Slice(0, f.Cap())
		b := unsafe.Slice((*byte)(f.UnsafePointer()), f.Len()*int(f.Type().Elem().Size()))
		for j := range b {
			b[j] = 0xA5
		}
	}
}

// appendBool appends one verdict byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func rankSubject(f gf.Field, cols, extra int) resetSubject {
	m := NewRankMatrix(f, cols, extra)
	return resetSubject{m: m, reset: m.Reset, feed: func(seed uint64) []byte {
		rng, emits := core.NewRand(seed), core.NewRand(seed+1)
		c, pay := make([]gf.Elem, cols), make([]byte, extra)
		var out []byte
		for i := 0; !m.Full(); i++ {
			coeffs, row := gf.RandVector(f, cols, rng), gf.RandBytes(f, extra, rng)
			if i%3 == 2 && m.Rank() > 0 {
				m.RandomCombinationInto(rng, coeffs, row) // never helpful
			}
			if extra == 0 {
				row = nil
			}
			out = appendBool(out, m.WouldHelp(coeffs))
			out = appendBool(out, m.AddOwned(coeffs, row))
			if extra == 0 {
				m.RandomCombinationInto(emits, c, nil)
			} else {
				m.RandomCombinationInto(emits, c, pay)
			}
			out = append(append(out, gf.AsBytes(c)...), pay...)
		}
		if extra > 0 {
			dec, err := m.Solve()
			if err != nil {
				panic(err)
			}
			out = append(out, bytes.Join(dec, nil)...)
		}
		return out
	}}
}

func bitSubject(cols, extra int) resetSubject {
	m := NewBitMatrixPayload(cols, extra)
	f := gf.MustNew(2)
	return resetSubject{m: m, reset: m.Reset, feed: func(seed uint64) []byte {
		rng, emits := core.NewRand(seed), core.NewRand(seed+1)
		c, pay := NewBitVec(cols), make([]byte, extra)
		var out []byte
		for i := 0; !m.Full(); i++ {
			row, rowPay := NewBitVec(cols), gf.RandBytes(f, extra, rng)
			for j, s := range gf.RandVector(f, cols, rng) {
				if s == 1 {
					row.Set(j)
				}
			}
			if i%3 == 2 && m.Rank() > 0 {
				m.RandomCombinationInto(rng, row, rowPay)
			}
			out = appendBool(out, m.WouldHelp(row))
			out = appendBool(out, m.AddPayload(row, rowPay))
			m.RandomCombinationInto(emits, c, pay)
			out = append(wordBytes(out, c), pay...)
		}
		if extra > 0 {
			dec, err := m.Solve()
			if err != nil {
				panic(err)
			}
			out = append(out, bytes.Join(dec, nil)...)
		}
		return out
	}}
}

func slicedSubject(f *gf.GF2m, cols, extra int) resetSubject {
	m := NewSlicedMatrix(f, cols, extra)
	return resetSubject{m: m, reset: m.Reset, feed: func(seed uint64) []byte {
		rng, emits := core.NewRand(seed), core.NewRand(seed+1)
		c, pay := make(SlicedVec, m.Stride()), make(SlicedVec, m.PayStride())
		var out []byte
		for i := 0; !m.Full(); i++ {
			row, rowPay := packBytes(f, gf.RandBytes(f, cols, rng)), packBytes(f, gf.RandBytes(f, extra, rng))
			if i%3 == 2 && m.Rank() > 0 {
				m.RandomCombinationInto(rng, row, rowPay)
			}
			if extra == 0 {
				rowPay = nil
			}
			out = appendBool(out, m.WouldHelp(row))
			out = appendBool(out, m.AddOwned(row, rowPay))
			if extra == 0 {
				m.RandomCombinationInto(emits, c, nil)
			} else {
				m.RandomCombinationInto(emits, c, pay)
			}
			out = wordBytes(wordBytes(out, c), pay)
		}
		if extra > 0 {
			dec, err := m.Solve()
			if err != nil {
				panic(err)
			}
			out = append(out, bytes.Join(dec, nil)...)
		}
		return out
	}}
}

// TestResetMatchesFresh holds Reset to its claim on every matrix: a
// matrix filled to full rank (and solved, where it carries payloads),
// reset, and then poisoned — every byte it keeps set to 0xA5, arenas and
// scratch alike — answers a new stream of rows exactly as a new matrix
// does, row for row: the helpful verdicts, every emit, the decode. A
// second reset of a matrix taken back after the first is held the same
// way. Byte rows run over GF(2^m) and a prime field, rank-only and with
// payloads, also past the stack block an emit folds its factors in;
// packed bits at one, two, three and four words a row; bit-sliced rows
// on the one- and two-word table kernels of GF(16) and GF(256) and
// untabbed at five words.
func TestResetMatchesFresh(t *testing.T) {
	gf16, gf256 := slicedTestField(t, 4), slicedTestField(t, 8)
	cases := []struct {
		name  string
		build func() resetSubject
	}{
		{"rank/gf256/rank-only", func() resetSubject { return rankSubject(gf.MustNew(256), 40, 0) }},
		{"rank/gf256/payload", func() resetSubject { return rankSubject(gf.MustNew(256), 40, 90) }},
		{"rank/gf256/payload-k300", func() resetSubject { return rankSubject(gf.MustNew(256), 300, 9) }},
		{"rank/gf7/payload", func() resetSubject { return rankSubject(gf.MustNew(7), 30, 20) }},
		{"bit/1w/rank-only", func() resetSubject { return bitSubject(40, 0) }},
		{"bit/2w/payload", func() resetSubject { return bitSubject(100, 33) }},
		{"bit/3w/rank-only", func() resetSubject { return bitSubject(150, 0) }},
		{"bit/4w/rank-only", func() resetSubject { return bitSubject(256, 0) }},
		{"sliced/gf256-1w/rank-only", func() resetSubject { return slicedSubject(gf256, 40, 0) }},
		{"sliced/gf256-1w/payload", func() resetSubject { return slicedSubject(gf256, 40, 70) }},
		{"sliced/gf256-2w/payload", func() resetSubject { return slicedSubject(gf256, 100, 20) }},
		{"sliced/gf16-2w/payload", func() resetSubject { return slicedSubject(gf16, 100, 20) }},
		{"sliced/gf256-5w/payload", func() resetSubject { return slicedSubject(gf256, 300, 10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused := tc.build()
			reused.feed(1)
			for _, seed := range []uint64{2, 3} {
				reused.reset()
				poisonAll(reused.m)
				got, want := reused.feed(seed), tc.build().feed(seed)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: a reset, poisoned matrix answered %d bytes that differ from a new one's %d (first difference at %d)",
						seed, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestResetAllocatesNothing: a matrix reset and refilled to full rank
// allocates nothing at all — its arenas, bookkeeping and scratch are the
// first fill's.
func TestResetAllocatesNothing(t *testing.T) {
	const cols, extra = 24, 40
	f := gf.MustNew(256)
	gf256 := slicedTestField(t, 8)
	rng := core.NewRand(9)
	coeffs := make([][]gf.Elem, cols)
	pays := make([][]byte, cols)
	for i := range coeffs {
		coeffs[i], pays[i] = gf.RandVector(f, cols, rng), gf.RandBytes(f, extra, rng)
		coeffs[i][i] = 1 // the rows are independent: unit lower triangle…
		for j := i + 1; j < cols; j++ {
			coeffs[i][j] = 0 // …and zero above it
		}
	}
	rank := NewRankMatrix(f, cols, extra)
	sliced := NewSlicedMatrix(gf256, cols, extra)
	bit := NewBitMatrixPayload(cols, extra)
	slicedRows := make([]SlicedVec, cols)
	slicedPays := make([]SlicedVec, cols)
	bitRows := make([]BitVec, cols)
	for i := range coeffs {
		slicedRows[i], slicedPays[i] = packCoeffs(gf256, coeffs[i]), packBytes(gf256, pays[i])
		bitRows[i] = NewBitVec(cols)
		bitRows[i].Set(i)
	}
	// AddOwned and AddPayload reduce their arguments in place: every fill
	// copies the row into these first.
	row, pay := NewBitVec(cols), make([]byte, extra)
	c := make([]gf.Elem, cols)
	srow, spay := make(SlicedVec, sliced.Stride()), make(SlicedVec, sliced.PayStride())
	for _, tc := range []struct {
		name string
		m    interface{ Full() bool }
		fill func()
	}{
		{"rank", rank, func() {
			rank.Reset()
			for i := range coeffs {
				copy(c, coeffs[i])
				rank.AddOwned(c, pays[i])
			}
		}},
		{"sliced", sliced, func() {
			sliced.Reset()
			for i := range slicedRows {
				copy(srow, slicedRows[i])
				copy(spay, slicedPays[i])
				sliced.AddOwned(srow, spay)
			}
		}},
		{"bit", bit, func() {
			bit.Reset()
			for i := range bitRows {
				copy(row, bitRows[i])
				copy(pay, pays[i])
				bit.AddPayload(row, pay)
			}
		}},
	} {
		tc.fill()
		if got := testing.AllocsPerRun(5, tc.fill); got != 0 {
			t.Errorf("%s: a reset and refill allocated %.0f times, want 0", tc.name, got)
		}
		if !tc.m.Full() {
			t.Fatalf("%s: the refill did not reach full rank", tc.name)
		}
	}
}
