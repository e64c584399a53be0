package graph

import (
	"testing"
	"testing/quick"

	"algossip/internal/core"
)

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder("t", 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(1, 1) // self loop, ignored
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge lookup failed")
	}
	if g.HasEdge(1, 2) {
		t.Fatal("phantom edge")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder("t", 2).AddEdge(0, 2)
}

// TestGeneratorInvariants checks n, m, Δ, connectivity and diameter for
// every deterministic generator against closed-form values.
func TestGeneratorInvariants(t *testing.T) {
	tests := []struct {
		g        *Graph
		wantN    int
		wantM    int
		wantDeg  int
		wantDiam int
	}{
		{Line(10), 10, 9, 2, 9},
		{Line(2), 2, 1, 1, 1},
		{Ring(10), 10, 10, 2, 5},
		{Ring(9), 9, 9, 2, 4},
		{Grid(4, 5), 20, 31, 4, 7},
		{Grid(1, 7), 7, 6, 2, 6},
		{Torus(4, 4), 16, 32, 4, 4},
		{Complete(8), 8, 28, 7, 1},
		{Star(9), 9, 8, 8, 2},
		{BinaryTree(7), 7, 6, 3, 4},
		{BinaryTree(15), 15, 14, 3, 6},
		{KAryTree(13, 3), 13, 12, 4, 4},
		{Barbell(10), 10, 21, 5, 3},
		{Barbell(2), 2, 1, 1, 1},
		{Lollipop(5, 3), 8, 13, 5, 4},
		{CliqueChain(3, 4), 12, 20, 4, 5},
		{Hypercube(4), 16, 32, 4, 4},
	}
	for _, tt := range tests {
		name := tt.g.Name()
		if got := tt.g.N(); got != tt.wantN {
			t.Errorf("%s: N = %d, want %d", name, got, tt.wantN)
		}
		if got := tt.g.M(); got != tt.wantM {
			t.Errorf("%s: M = %d, want %d", name, got, tt.wantM)
		}
		if got := tt.g.MaxDegree(); got != tt.wantDeg {
			t.Errorf("%s: MaxDegree = %d, want %d", name, got, tt.wantDeg)
		}
		if got := tt.g.Diameter(); got != tt.wantDiam {
			t.Errorf("%s: Diameter = %d, want %d", name, got, tt.wantDiam)
		}
		if !tt.g.IsConnected() {
			t.Errorf("%s: not connected", name)
		}
	}
}

func TestBarbellStructure(t *testing.T) {
	g := Barbell(20)
	// Exactly one bridge edge: between 9 and 10.
	if !g.HasEdge(9, 10) {
		t.Fatal("bridge edge missing")
	}
	cross := 0
	for _, e := range g.Edges() {
		if e[0] < 10 && e[1] >= 10 {
			cross++
		}
	}
	if cross != 1 {
		t.Fatalf("crossing edges = %d, want 1", cross)
	}
	if g.MinDegree() != 9 {
		t.Fatalf("min degree = %d, want 9", g.MinDegree())
	}
}

func TestRandomGeneratorsConnected(t *testing.T) {
	rng := core.NewRand(12345)
	for trial := 0; trial < 5; trial++ {
		if g := ErdosRenyi(60, 0.05, rng); !g.IsConnected() {
			t.Error("ErdosRenyi sample disconnected after stitching")
		}
		if g := RandomRegular(50, 3, rng); !g.IsConnected() {
			t.Error("RandomRegular sample disconnected")
		}
	}
}

func TestRandomRegularDegree(t *testing.T) {
	rng := core.NewRand(7)
	g := RandomRegular(40, 4, rng)
	if g.MaxDegree() > 5 {
		t.Errorf("max degree = %d, want close to 4", g.MaxDegree())
	}
	if g.MinDegree() < 2 {
		t.Errorf("min degree = %d, too small", g.MinDegree())
	}
}

func TestBFSLine(t *testing.T) {
	g := Line(6)
	dist, parent := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != core.NilNode {
		t.Fatal("root must have no parent")
	}
	for v := 1; v < 6; v++ {
		if parent[v] != core.NodeID(v-1) {
			t.Fatalf("parent[%d] = %d", v, parent[v])
		}
	}
}

func TestBFSTreeDepthBoundedByDiameter(t *testing.T) {
	graphs := []*Graph{Line(20), Ring(21), Grid(5, 6), Complete(10), Barbell(12), BinaryTree(31)}
	for _, g := range graphs {
		d := g.Diameter()
		for root := 0; root < g.N(); root += 3 {
			tree := g.BFSTree(core.NodeID(root))
			if err := tree.Validate(); err != nil {
				t.Fatalf("%s: invalid BFS tree: %v", g.Name(), err)
			}
			if tree.Depth() > d {
				t.Fatalf("%s: BFS depth %d exceeds diameter %d", g.Name(), tree.Depth(), d)
			}
		}
	}
}

func TestTreeValidateRejectsBadTrees(t *testing.T) {
	// Cycle: 1 -> 2 -> 1.
	bad := &Tree{Root: 0, Parent: []core.NodeID{core.NilNode, 2, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("cycle not detected")
	}
	// Root with a parent.
	bad2 := &Tree{Root: 0, Parent: []core.NodeID{1, core.NilNode}}
	if err := bad2.Validate(); err == nil {
		t.Error("rooted-root not detected")
	}
	// Orphan (parent == NilNode on a non-root).
	bad3 := &Tree{Root: 0, Parent: []core.NodeID{core.NilNode, core.NilNode}}
	if err := bad3.Validate(); err == nil {
		t.Error("orphan not detected")
	}
}

func TestTreeDepthsChildrenDiameter(t *testing.T) {
	// A path tree 0 <- 1 <- 2 <- 3.
	tr := &Tree{Root: 0, Parent: []core.NodeID{core.NilNode, 0, 1, 2}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d := tr.Depths()
	for v, want := range []int{0, 1, 2, 3} {
		if d[v] != want {
			t.Fatalf("depth[%d] = %d, want %d", v, d[v], want)
		}
	}
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	if tr.Diameter() != 3 {
		t.Fatalf("Diameter = %d", tr.Diameter())
	}
}

// TestTreeDiameterMatchesGraph: a tree's diameter is its edge graph's,
// the exact all-pairs one, on the BFS trees of random graphs from every
// root kind (a leaf, a hub) and on paths, stars and binary trees.
func TestTreeDiameterMatchesGraph(t *testing.T) {
	rng := core.NewRand(11)
	graphs := []*Graph{Line(1), Line(2), Line(9), Star(7), BinaryTree(31), Grid(4, 6)}
	for _, n := range []int{5, 17, 40, 90} {
		graphs = append(graphs, ErdosRenyi(n, 0.1, rng), RandomRegular(n, 3, rng))
	}
	for _, g := range graphs {
		for _, root := range []core.NodeID{0, core.NodeID(g.N() - 1), core.NodeID(g.N() / 2)} {
			tr := g.BFSTree(root)
			b := NewBuilder("tree", tr.N())
			for v, p := range tr.Parent {
				if p != core.NilNode {
					b.AddEdge(core.NodeID(v), p)
				}
			}
			if got, want := tr.Diameter(), b.Build().Diameter(); got != want {
				t.Errorf("%s, BFS tree from %d: Diameter %d, its edge graph's %d", g.Name(), root, got, want)
			}
		}
	}
}

// TestSumDegreesAlongShortestPath validates Lemma 2 of the paper: on any
// connected graph, the sum of degrees along any shortest path is at most 3n.
func TestSumDegreesAlongShortestPath(t *testing.T) {
	rng := core.NewRand(99)
	graphs := []*Graph{
		Line(30), Ring(30), Grid(6, 6), Complete(25), Barbell(24),
		BinaryTree(31), Lollipop(12, 10), CliqueChain(3, 8), Hypercube(5),
		ErdosRenyi(40, 0.1, rng), RandomRegular(36, 4, rng),
	}
	for _, g := range graphs {
		n := g.N()
		for root := 0; root < n; root += 5 {
			_, parent := g.BFS(core.NodeID(root))
			for v := 0; v < n; v++ {
				sum := 0
				u := core.NodeID(v)
				for u != core.NilNode {
					sum += g.Degree(u)
					u = parent[u]
				}
				if sum > 3*n {
					t.Fatalf("%s: degree sum %d on path %d->%d exceeds 3n=%d",
						g.Name(), sum, root, v, 3*n)
				}
			}
		}
	}
}

// TestConstantDegreeDiameterLogN validates Claim 1: constant-max-degree
// graphs have diameter Ω(log n).
func TestConstantDegreeDiameterLogN(t *testing.T) {
	for _, g := range []*Graph{Line(64), Ring(64), Grid(8, 8), BinaryTree(63), Hypercube(6)} {
		delta := g.MaxDegree()
		d := g.Diameter()
		n := g.N()
		// D + 2 >= log_Δ(n) from the claim's proof.
		logDeltaN := 0
		for v := 1; v < n; v *= delta {
			logDeltaN++
		}
		if d+2 < logDeltaN {
			t.Errorf("%s: diameter %d violates Claim 1 bound %d", g.Name(), d, logDeltaN)
		}
	}
}

func TestDiameterApproxNeverExceedsExact(t *testing.T) {
	rng := core.NewRand(5)
	graphs := []*Graph{Line(15), Grid(4, 7), Barbell(16), ErdosRenyi(30, 0.15, rng)}
	for _, g := range graphs {
		exact, approx := g.Diameter(), g.DiameterApprox()
		if approx > exact {
			t.Errorf("%s: approx %d > exact %d", g.Name(), approx, exact)
		}
		// Double sweep is exact on trees.
	}
	tree := BinaryTree(31)
	if tree.Diameter() != tree.DiameterApprox() {
		t.Error("double sweep must be exact on trees")
	}
}

func TestQuickGridDiameter(t *testing.T) {
	check := func(r8, c8 uint8) bool {
		r := 1 + int(r8)%9
		c := 1 + int(c8)%9
		return Grid(r, c).Diameter() == r+c-2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := Grid(3, 3)
	b := NewBuilder("copy", g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	cp := b.Build()
	if cp.M() != g.M() || cp.Diameter() != g.Diameter() {
		t.Fatal("edge round trip failed")
	}
}

func TestSubgraph(t *testing.T) {
	g := Barbell(10) // left clique 0..4
	sub := g.Subgraph([]core.NodeID{0, 1, 2, 3, 4})
	if sub.N() != 5 || sub.M() != 10 {
		t.Fatalf("left clique subgraph: n=%d m=%d", sub.N(), sub.M())
	}
	if sub.Diameter() != 1 {
		t.Fatalf("clique subgraph diameter = %d", sub.Diameter())
	}
	// Nodes from both sides: only the bridge edge (4-5) crosses.
	cross := g.Subgraph([]core.NodeID{4, 5})
	if cross.M() != 1 {
		t.Fatalf("bridge subgraph m = %d", cross.M())
	}
	empty := g.Subgraph([]core.NodeID{0, 9})
	if empty.M() != 0 {
		t.Fatalf("disconnected pair subgraph m = %d", empty.M())
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := Grid(32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFS(core.NodeID(i % g.N()))
	}
}

func BenchmarkDiameterBarbell(b *testing.B) {
	g := Barbell(128)
	for i := 0; i < b.N; i++ {
		_ = g.DiameterApprox()
	}
}

// TestMinCutKnownValues checks Stoer-Wagner against closed-form cuts.
func TestMinCutKnownValues(t *testing.T) {
	tests := []struct {
		g    *Graph
		want int
	}{
		{Line(10), 1},       // any single path edge
		{Ring(10), 2},       // two ring edges
		{Complete(6), 5},    // isolate one vertex
		{Barbell(12), 1},    // the bridge
		{Grid(4, 4), 2},     // corner vertex degree
		{BinaryTree(15), 1}, // any tree edge
		{Hypercube(4), 4},   // vertex degree d
		{Star(7), 1},        // any leaf edge
		{CliqueChain(3, 5), 1},
	}
	for _, tt := range tests {
		if got := tt.g.MinCut(); got != tt.want {
			t.Errorf("%s: MinCut = %d, want %d", tt.g.Name(), got, tt.want)
		}
	}
}

// TestMinCutBounds: for any connected graph, 1 <= mincut <= min degree.
func TestMinCutBounds(t *testing.T) {
	rng := core.NewRand(77)
	graphs := []*Graph{
		ErdosRenyi(24, 0.25, rng),
		RandomRegular(20, 4, rng),
		Lollipop(8, 5),
		Torus(4, 5),
	}
	for _, g := range graphs {
		cut := g.MinCut()
		if cut < 1 || cut > g.MinDegree() {
			t.Errorf("%s: MinCut = %d outside [1, minDeg=%d]", g.Name(), cut, g.MinDegree())
		}
	}
}

func TestMinCutTrivial(t *testing.T) {
	if Line(1).MinCut() != 0 {
		t.Error("single node min cut must be 0")
	}
	if Line(2).MinCut() != 1 {
		t.Error("single edge min cut must be 1")
	}
}
