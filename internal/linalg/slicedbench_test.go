package linalg

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func BenchmarkSlicedEmitK128(b *testing.B) {
	f, _ := gf.NewGF2m(8)
	m := NewSlicedMatrix(f, 128, 0)
	rng := core.NewRand(1)
	for !m.Full() {
		row := make(SlicedVec, m.Stride())
		raw := gf.RandBytes(f, 128, rng)
		f.PackSliced(row, raw)
		m.AddOwned(row, nil)
	}
	out := make(SlicedVec, m.Stride())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RandomCombinationInto(rng, out, nil)
	}
}

func BenchmarkSlicedReduceK128(b *testing.B) {
	f, _ := gf.NewGF2m(8)
	m := NewSlicedMatrix(f, 128, 0)
	rng := core.NewRand(3)
	for m.Rank() < 127 { // not full: avoid the short-circuit
		row := make(SlicedVec, m.Stride())
		f.PackSliced(row, gf.RandBytes(f, 128, rng))
		m.AddOwned(row, nil)
	}
	probe := make(SlicedVec, m.Stride())
	f.PackSliced(probe, gf.RandBytes(f, 128, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WouldHelp(probe)
	}
}
