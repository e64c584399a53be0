package gf

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzFields covers every supported field class: GF(2), all binary
// extension fields (table kernels), and prime fields (scalar fallback).
var fuzzFields = []int{2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 7, 11, 13, 251}

// pickField maps a fuzz byte to a supported field.
func pickField(sel byte) Field {
	return MustNew(fuzzFields[int(sel)%len(fuzzFields)])
}

// reduceRow folds arbitrary fuzz bytes into valid field elements.
func reduceRow(f Field, raw []byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = byte(int(b) % f.Order())
	}
	return out
}

// FuzzAddMulSlice cross-checks the bulk dst += c*src kernel against the
// scalar Mul/Add path for every supported field, including the c==0,
// c==1 and dst-longer-than-src edge cases the fast paths special-case.
func FuzzAddMulSlice(f *testing.F) {
	f.Add([]byte("hello world"), []byte("abcdefghijk"), byte(3), byte(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3}, []byte{255, 254, 253, 252}, byte(1), byte(7), uint8(2))
	f.Add([]byte{}, []byte{}, byte(0), byte(13), uint8(1))
	f.Add(bytes.Repeat([]byte{0xAA}, 300), bytes.Repeat([]byte{0x55}, 300), byte(200), byte(5), uint8(3))
	f.Fuzz(func(t *testing.T, dstRaw, srcRaw []byte, cRaw, sel byte, extra uint8) {
		fld := pickField(sel)
		// Trim to a common length, then give dst extra tail bytes that the
		// kernel must leave untouched.
		n := len(srcRaw)
		if len(dstRaw) < n {
			n = len(dstRaw)
		}
		src := reduceRow(fld, srcRaw[:n])
		dst := reduceRow(fld, dstRaw[:n])
		tail := reduceRow(fld, bytes.Repeat([]byte{extra}, int(extra)%8))
		dst = append(dst, tail...)
		c := Elem(int(cRaw) % fld.Order())

		want := make([]byte, len(dst))
		copy(want, dst)
		for i := 0; i < n; i++ {
			want[i] = byte(fld.Add(Elem(dst[i]), fld.Mul(c, Elem(src[i]))))
		}

		// Every available kernel tier must match the element-wise result.
		for _, tier := range AvailableTiers() {
			got := append([]byte(nil), dst...)
			withFuzzTier(t, tier, func() { fld.AddMulSlice(got, src, c) })
			if !bytes.Equal(got, want) {
				t.Fatalf("%s AddMulSlice(c=%d, n=%d) tier %v diverges from scalar path:\ngot  %v\nwant %v",
					fld.Name(), c, n, tier, got, want)
			}
		}
	})
}

// FuzzAddMulSlices cross-checks the fused multi-row kernel against the
// element-wise Mul/Add sum on every tier and every binary extension
// field: the raw bytes are cut into rows of the fuzzed width, the first
// byte of each row is its coefficient (so zeros and ones occur).
func FuzzAddMulSlices(f *testing.F) {
	f.Add(bytes.Repeat([]byte("abcdefg"), 100), uint8(65), byte(7))
	f.Add(bytes.Repeat([]byte{0, 1, 0xFE}, 300), uint8(128), byte(3))
	f.Add([]byte{1, 2, 3}, uint8(0), byte(1))
	f.Add([]byte{}, uint8(9), byte(5))
	f.Fuzz(func(t *testing.T, raw []byte, width uint8, sel byte) {
		fld, ok := pickField(sel).(*GF2m)
		if !ok {
			return
		}
		n := int(width)
		raw = reduceRow(fld, raw)
		dst := make([]byte, n)
		var srcs [][]byte
		var cs []Elem
		for len(raw) >= n+1 {
			cs = append(cs, Elem(raw[0]))
			srcs = append(srcs, raw[1:n+1])
			raw = raw[n+1:]
		}
		copy(dst, raw) // what is left seeds dst
		want := append([]byte(nil), dst...)
		for j, src := range srcs {
			for i := range want {
				want[i] = byte(fld.Add(Elem(want[i]), fld.Mul(cs[j], Elem(src[i]))))
			}
		}
		for _, tier := range AvailableTiers() {
			got := append([]byte(nil), dst...)
			withFuzzTier(t, tier, func() { fld.AddMulSlices(got, srcs, cs) })
			if !bytes.Equal(got, want) {
				t.Fatalf("%s AddMulSlices(rows=%d, n=%d) tier %v diverges from the element-wise sum",
					fld.Name(), len(srcs), n, tier)
			}
		}
	})
}

// FuzzRowKernels cross-checks the coefficient-row kernels against the
// element-wise Mul/Add arithmetic on every tier: ReduceRows (facs
// recorded) and AddMulSlices of the same rows with the recorded factors.
// shape picks the width — a multiple of 32 up to 256 when odd, the kernels'
// rows, anything up to 128 when even, the Go loops' — and raw supplies,
// in turn, each row's pivot step, pivot value and tail, then v.
func FuzzRowKernels(f *testing.F) {
	f.Add(bytes.Repeat([]byte{3, 7, 0, 0xFE, 31}, 80), byte(7), byte(7))
	f.Add(bytes.Repeat([]byte{0, 1}, 300), byte(15), byte(3))
	f.Add([]byte{31, 5, 1, 2, 3}, byte(1), byte(6))
	f.Add([]byte{}, byte(2), byte(5))
	f.Fuzz(func(t *testing.T, raw []byte, shape, sel byte) {
		fld, ok := pickField(sel).(*GF2m)
		if !ok || len(raw) == 0 {
			return
		}
		n := int(shape>>1)%128 + 1
		if shape&1 == 1 {
			n = 32 * (int(shape>>1)%8 + 1)
		}
		raw = reduceRow(fld, raw)
		next := func(i int) byte { return raw[i%len(raw)] }
		var (
			rows   [][]byte
			pivots []int
			pivFac []Elem
		)
		at := 0
		for p := int(next(0)) % 40; p < n && len(rows) < 40; p += 1 + int(next(at))%40 {
			row := make([]byte, n)
			row[p] = next(at + 1)
			if row[p] == 0 {
				row[p] = 1
			}
			for j := p + 1; j < n; j++ {
				row[j] = next(at + 2 + j)
			}
			rows, pivots = append(rows, row), append(pivots, p)
			pivFac = append(pivFac, Elem(next(at+3))|1)
			at += 3
		}
		v := make([]byte, n)
		for i := range v {
			v[i] = next(at + 7*i)
		}
		want := append([]byte(nil), v...)
		wantF := make([]Elem, len(rows))
		for i, p := range pivots {
			c := Elem(want[p])
			if c == 0 {
				continue
			}
			wantF[i] = fld.Mul(c, pivFac[i])
			for j := range want {
				want[j] = byte(fld.Add(Elem(want[j]), fld.Mul(wantF[i], Elem(rows[i][j]))))
			}
		}
		for _, tier := range AvailableTiers() {
			got := append([]byte(nil), v...)
			gotF := make([]Elem, len(rows))
			withFuzzTier(t, tier, func() { fld.ReduceRows(got, rows, pivots, pivFac, gotF) })
			if !bytes.Equal(got, want) || !slices.Equal(gotF, wantF) {
				t.Fatalf("%s ReduceRows(n=%d, rows=%d) tier %v diverges from the element-wise reduction", fld.Name(), n, len(rows), tier)
			}
			// Adding the factors' combination back undoes the reduction.
			withFuzzTier(t, tier, func() { fld.AddMulSlices(got, rows, gotF) })
			if !bytes.Equal(got, v) {
				t.Fatalf("%s AddMulSlices(n=%d, rows=%d) tier %v does not undo ReduceRows", fld.Name(), n, len(rows), tier)
			}
		}
	})
}

// FuzzMulSlice cross-checks the in-place v *= c kernel against the
// scalar Mul path for every supported field.
func FuzzMulSlice(f *testing.F) {
	f.Add([]byte("some payload row"), byte(9), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, byte(0), uint8(4))
	f.Add([]byte{1}, byte(1), uint8(9))
	f.Add(bytes.Repeat([]byte{0xFF}, 257), byte(254), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, cRaw, sel byte) {
		fld := pickField(sel)
		v := reduceRow(fld, raw)
		c := Elem(int(cRaw) % fld.Order())

		want := make([]byte, len(v))
		for i, x := range v {
			want[i] = byte(fld.Mul(c, Elem(x)))
		}

		for _, tier := range AvailableTiers() {
			got := append([]byte(nil), v...)
			withFuzzTier(t, tier, func() { fld.MulSlice(got, c) })
			if !bytes.Equal(got, want) {
				t.Fatalf("%s MulSlice(c=%d, n=%d) tier %v diverges from scalar path:\ngot  %v\nwant %v",
					fld.Name(), c, len(v), tier, got, want)
			}
		}
	})
}

// withFuzzTier forces a dispatch tier for one kernel call inside a fuzz
// body, restoring the previous tier afterwards.
func withFuzzTier(t *testing.T, tier Tier, fn func()) {
	t.Helper()
	old := ActiveTier()
	if err := SetTier(tier); err != nil {
		t.Fatalf("SetTier(%v): %v", tier, err)
	}
	fn()
	if err := SetTier(old); err != nil {
		t.Fatalf("restore tier %v: %v", old, err)
	}
}
