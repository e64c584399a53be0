package graph

import (
	"math"
	"testing"

	"algossip/internal/core"
)

// sameEdges reports whether two graphs have identical edge sets.
func sameEdges(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e[0], e[1]) {
			return false
		}
	}
	return true
}

func TestStaticSchedule(t *testing.T) {
	g := Ring(10)
	s := Static(g)
	if s.Name() != g.Name() {
		t.Fatalf("static schedule mislabeled: %s", s.Name())
	}
	for _, round := range []int{0, 1, 7, 1 << 20} {
		if s.At(round) != g {
			t.Fatalf("round %d: static schedule returned a different pointer", round)
		}
	}
}

// TestSchedulesRefuseRatesOutOfRange: every schedule constructor panics
// on a rate outside its range, NaN included.
func TestSchedulesRefuseRatesOutOfRange(t *testing.T) {
	base := Ring(8)
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		for name, build := range map[string]func(){
			"edge":   func() { NewEdgeFailures(base, rate, 1) },
			"burst":  func() { NewBurstFailures(base, rate, 8, 2, 1) },
			"rewire": func() { NewRewire(base, rate, 4, 1) },
			"churn":  func() { NewChurn(base, rate, 4, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s schedule accepted rate %v", name, rate)
					}
				}()
				build()
			}()
		}
	}
}

func TestEdgeFailureSchedule(t *testing.T) {
	base := Torus(5, 5)
	s := NewEdgeFailures(base, 0.3, 42)
	prev := -1.0
	for round := 0; round < 20; round++ {
		g := s.At(round)
		if g.N() != base.N() {
			t.Fatalf("round %d: node count changed to %d", round, g.N())
		}
		if g.M() > base.M() {
			t.Fatalf("round %d: %d edges exceed base %d", round, g.M(), base.M())
		}
		for _, e := range g.Edges() {
			if !base.HasEdge(e[0], e[1]) {
				t.Fatalf("round %d: edge (%d,%d) not in base", round, e[0], e[1])
			}
		}
		// Repeated queries for the same round return the same pointer.
		if s.At(round) != g {
			t.Fatalf("round %d: At is not pointer-stable", round)
		}
		prev += float64(g.M())
	}
	if prev <= 0 {
		t.Fatal("all rounds empty at rate 0.3")
	}
	// Purity across schedule instances: same seed, same per-round samples.
	s2 := NewEdgeFailures(base, 0.3, 42)
	for round := 0; round < 20; round++ {
		if !sameEdges(s.At(round), s2.At(round)) {
			t.Fatalf("round %d: same seed produced different failure samples", round)
		}
	}
	// Rate 0 degenerates to the base graph, same pointer.
	if NewEdgeFailures(base, 0, 1).At(5) != base {
		t.Fatal("rate 0 must return the base graph")
	}
}

func TestBurstFailureSchedule(t *testing.T) {
	base := Grid(5, 5)
	s := NewBurstFailures(base, 0.5, 16, 4, 7)
	// Round 0 and every non-burst phase: the intact base graph.
	for _, round := range []int{0, 4, 15, 20, 31} {
		if s.At(round) != base {
			t.Fatalf("round %d should be outside a burst", round)
		}
	}
	// Within one burst the sample is stable (same pointer).
	g16 := s.At(16)
	if g16 == base {
		t.Fatal("round 16 must be inside a burst")
	}
	for round := 17; round < 20; round++ {
		if s.At(round) != g16 {
			t.Fatalf("round %d: burst sample not stable", round)
		}
	}
	if g16.M() >= base.M() {
		t.Fatalf("burst dropped no edges (%d of %d)", g16.M(), base.M())
	}
	// Different epochs draw different samples (with overwhelming probability).
	if sameEdges(s.At(32), g16) && sameEdges(s.At(48), g16) {
		t.Error("three consecutive bursts sampled identical failures")
	}
}

func TestRewireSchedule(t *testing.T) {
	base := Ring(30)
	s := NewRewire(base, 0.3, 8, 3)
	if s.At(0) != base || s.At(7) != base {
		t.Fatal("epoch 0 must be the intact base graph")
	}
	g1 := s.At(8)
	if g1 == base {
		t.Fatal("epoch 1 must be rewired")
	}
	if g1.N() != base.N() {
		t.Fatalf("rewire changed node count to %d", g1.N())
	}
	for round := 9; round < 16; round++ {
		if s.At(round) != g1 {
			t.Fatalf("round %d: epoch sample not stable", round)
		}
	}
	// Rewiring only moves endpoints: the edge count never grows.
	if g1.M() > base.M() {
		t.Fatalf("rewire grew the edge count: %d > %d", g1.M(), base.M())
	}
}

func TestChurnSchedule(t *testing.T) {
	base := Complete(20)
	s := NewChurn(base, 0.3, 4, 11)
	if s.At(0) != base || s.At(3) != base {
		t.Fatal("block 0 must start with every node up")
	}
	if s.ResetAt(0) != nil {
		t.Fatal("no resets at round 0")
	}
	// Down nodes are isolated; up nodes keep their mutual edges.
	for _, round := range []int{4, 8, 12, 16} {
		g := s.At(round)
		block := round / 4
		for v := 0; v < base.N(); v++ {
			id := core.NodeID(v)
			if s.down(id, block) != (g.Degree(id) == 0) {
				// A down node must be isolated. (In K20 an up node always
				// keeps at least one up peer at rate 0.3 w.h.p.; tolerate
				// the converse only for down nodes.)
				if s.down(id, block) {
					t.Fatalf("round %d: down node %d has degree %d", round, v, g.Degree(id))
				}
			}
		}
	}
	// Resets happen exactly at block boundaries, only for down->up nodes.
	for round := 1; round < 32; round++ {
		resets := s.ResetAt(round)
		if round%4 != 0 && resets != nil {
			t.Fatalf("round %d: resets off a block boundary", round)
		}
		block := round / 4
		for _, v := range resets {
			if !s.down(v, block-1) || s.down(v, block) {
				t.Fatalf("round %d: node %d reset without a down->up transition", round, v)
			}
		}
	}
	// Determinism across instances.
	s2 := NewChurn(base, 0.3, 4, 11)
	for round := 0; round < 32; round += 4 {
		if !sameEdges(s.At(round), s2.At(round)) {
			t.Fatalf("round %d: churn not deterministic", round)
		}
	}
}

func TestGrowSchedule(t *testing.T) {
	const n, m, period = 20, 2, 3
	s := NewGrow(n, m, period, 5)
	g0 := s.At(0)
	if g0.N() != n {
		t.Fatalf("N = %d, want %d", g0.N(), n)
	}
	// Initially the m+1 seed clique; everyone else isolated.
	if got := g0.M(); got != m*(m+1)/2 {
		t.Fatalf("initial edges = %d, want %d", got, m*(m+1)/2)
	}
	prevJoined := m + 1
	for round := 0; round < (n+2)*period; round++ {
		joined := s.Joined(round)
		if joined < prevJoined {
			t.Fatalf("round %d: joined count regressed %d -> %d", round, prevJoined, joined)
		}
		prevJoined = joined
		g := s.At(round)
		// Joined nodes form one connected component; the rest are isolated.
		for v := 0; v < n; v++ {
			deg := g.Degree(core.NodeID(v))
			if v < joined && deg == 0 {
				t.Fatalf("round %d: joined node %d isolated", round, v)
			}
			if v >= joined && deg != 0 {
				t.Fatalf("round %d: unjoined node %d has degree %d", round, v, deg)
			}
		}
	}
	// After the last join: stable (same pointer) and fully grown with the
	// exact preferential-attachment edge count.
	final := s.At(10 * n * period)
	if s.At(10*n*period+1) != final {
		t.Fatal("stabilized schedule must be pointer-stable")
	}
	wantM := m*(m+1)/2 + (n-m-1)*m
	if final.M() != wantM {
		t.Fatalf("final edges = %d, want %d", final.M(), wantM)
	}
	if !final.IsConnected() {
		t.Fatal("stabilized PA graph must be connected")
	}
}
