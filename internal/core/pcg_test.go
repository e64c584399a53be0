package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// stdRand is the stream NewRand promises, drawn from the standard
// library's own PCG.
func stdRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// sameStream fails unless a and b return the same next draws.
func sameStream(t *testing.T, a, b *rand.Rand, where string) {
	t.Helper()
	for i := range 4 {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: draw %d is %#x, math/rand/v2 PCG gives %#x", where, i, x, y)
		}
	}
}

// TestPCGMatchesStdlib pins the stream every golden trajectory stands on:
// NewRand is math/rand/v2's PCG-DXSM draw for draw through every rand.Rand
// method the repo uses, and Skip(n) on the extracted generator is n draws.
func TestPCGMatchesStdlib(t *testing.T) {
	for s := range uint64(64) {
		seed := SplitSeed(s, 0)
		if s < 2 {
			seed = s // the all-zero and near-zero states too
		}
		a, b := NewRand(seed), stdRand(seed)
		g := Generator(a)
		if g == nil {
			t.Fatal("Generator(NewRand) = nil")
		}
		for round, n := range []int{0, 1, 255, 256, 257, 1000} {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d round %d: Uint64 %#x != %#x", seed, round, x, y)
			}
			if x, y := a.IntN(7+round), b.IntN(7+round); x != y {
				t.Fatalf("seed %d round %d: IntN %d != %d", seed, round, x, y)
			}
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d round %d: Float64 %v != %v", seed, round, x, y)
			}
			if x, y := a.Perm(9), b.Perm(9); !slices.Equal(x, y) {
				t.Fatalf("seed %d round %d: Perm %v != %v", seed, round, x, y)
			}
			g.Skip(n)
			for range n {
				b.Uint64()
			}
			sameStream(t, a, b, "after Skip")
		}
	}
}

func FuzzPCGSkip(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(0), uint16(256))
	f.Add(uint64(1<<63), uint16(257))
	f.Add(^uint64(0), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		a, b := NewRand(seed), stdRand(seed)
		Generator(a).Skip(int(n))
		for range n {
			b.Uint64()
		}
		sameStream(t, a, b, "after Skip")
	})
}

// TestRandLayout guards Generator's unsafe read: rand.Rand must be exactly
// one rand.Source at offset 0. A toolchain that changes that fails here,
// before any emit loop reads a wrong word.
func TestRandLayout(t *testing.T) {
	rt := reflect.TypeOf(rand.Rand{})
	src := reflect.TypeOf((*rand.Source)(nil)).Elem()
	if rt.NumField() != 1 || rt.Field(0).Type != src || rt.Field(0).Offset != 0 || rt.Size() != src.Size() {
		t.Fatalf("math/rand/v2.Rand is no longer struct{ src Source } (%v, %d bytes): core.Generator must be rewritten for this toolchain", rt, rt.Size())
	}
}

type wrappedSource struct{ rand.Source }

// TestGeneratorForeignSource: Generator hands back the *PCG of a stream
// NewRand built and refuses every other source — a caller-side bug — with
// a panic that names NewRand.
func TestGeneratorForeignSource(t *testing.T) {
	own := &PCG{hi: 1, lo: 2}
	if got := Generator(rand.New(own)); got != own {
		t.Errorf("Generator(rand.New(own)) = %p, want %p", got, own)
	}
	for name, src := range map[string]rand.Source{
		"rand.PCG":  rand.NewPCG(1, 2),
		"ChaCha8":   rand.NewChaCha8([32]byte{1}),
		"wrapped":   wrappedSource{own},
		"rand.Rand": NewRand(3),
		"nil":       nil,
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "core.NewRand") {
					t.Errorf("Generator over %s: panic %q, want one naming core.NewRand", name, msg)
				}
			}()
			Generator(rand.New(src))
		}()
	}
}
