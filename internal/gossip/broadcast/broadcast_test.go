package broadcast

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/sim"
)

func testGraphs() []*graph.Graph {
	rng := core.NewRand(1)
	return []*graph.Graph{
		graph.Line(30),
		graph.Ring(30),
		graph.Grid(6, 5),
		graph.Complete(20),
		graph.Star(20),
		graph.Barbell(24),
		graph.BinaryTree(31),
		graph.Lollipop(10, 10),
		graph.ErdosRenyi(30, 0.15, rng),
	}
}

// TestBRRSynchronousWithin3N validates Theorem 5's probability-1 claim: the
// round-robin broadcast finishes within 3n synchronous rounds on any
// connected graph, for every seed.
func TestBRRSynchronousWithin3N(t *testing.T) {
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 10; seed++ {
			p := New(g, core.Synchronous, sim.NewRoundRobin(g), Config{Origin: 0}, core.NewRand(seed))
			res, err := sim.New(g, core.Synchronous, p, seed+100).Run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name(), seed, err)
			}
			if res.Rounds > 3*g.N() {
				t.Errorf("%s seed %d: BRR took %d rounds > 3n = %d (violates Theorem 5)",
					g.Name(), seed, res.Rounds, 3*g.N())
			}
		}
	}
}

// TestBRRAsynchronousLinear validates the O(n) asynchronous bound of
// Theorem 5 with a generous constant.
func TestBRRAsynchronousLinear(t *testing.T) {
	for _, g := range testGraphs() {
		p := New(g, core.Asynchronous, sim.NewRoundRobin(g), Config{Origin: 0}, core.NewRand(5))
		res, err := sim.New(g, core.Asynchronous, p, 6).Run()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if res.Rounds > 12*g.N() {
			t.Errorf("%s: async BRR took %d rounds, want O(n) ~ %d", g.Name(), res.Rounds, 12*g.N())
		}
	}
}

// TestBroadcastTreeValid checks that the parent pointers of a completed
// broadcast always form a valid spanning tree rooted at the origin.
func TestBroadcastTreeValid(t *testing.T) {
	for _, g := range testGraphs() {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			for _, mkSel := range []func() sim.PartnerSelector{
				func() sim.PartnerSelector { return sim.NewUniform(g) },
				func() sim.PartnerSelector { return sim.NewRoundRobin(g) },
			} {
				p := New(g, model, mkSel(), Config{Origin: 3 % core.NodeID(g.N())}, core.NewRand(9))
				if _, err := sim.New(g, model, p, 10).Run(); err != nil {
					t.Fatalf("%s/%s: %v", g.Name(), model, err)
				}
				tree, ok := p.Tree()
				if !ok {
					t.Fatalf("%s/%s: tree unavailable after completion", g.Name(), model)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("%s/%s: invalid tree: %v", g.Name(), model, err)
				}
				// Tree edges must be graph edges.
				for v, par := range tree.Parent {
					if par != core.NilNode && !g.HasEdge(core.NodeID(v), par) {
						t.Fatalf("%s/%s: tree edge (%d,%d) not in graph", g.Name(), model, v, par)
					}
				}
			}
		}
	}
}

// TestTreeDepthBoundedByBroadcastTime validates the observation of Section
// 4.1: in the synchronous model the broadcast tree depth cannot exceed the
// broadcast time, t(B) >= d(B)/2... precisely depth <= rounds, since a
// message travels at most one hop per round.
func TestTreeDepthBoundedByBroadcastTime(t *testing.T) {
	for _, g := range testGraphs() {
		p := New(g, core.Synchronous, sim.NewUniform(g), Config{Origin: 0}, core.NewRand(17))
		res, err := sim.New(g, core.Synchronous, p, 18).Run()
		if err != nil {
			t.Fatal(err)
		}
		tree, _ := p.Tree()
		if tree.Depth() > res.Rounds {
			t.Errorf("%s: tree depth %d exceeds broadcast time %d rounds",
				g.Name(), tree.Depth(), res.Rounds)
		}
	}
}

func TestInformedRoundsMonotone(t *testing.T) {
	g := graph.Line(20)
	p := New(g, core.Synchronous, sim.NewUniform(g), Config{Origin: 0}, core.NewRand(2))
	res, err := sim.New(g, core.Synchronous, p, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := p.DoneRounds()
	if rounds[0] != 0 {
		t.Fatalf("origin informed at %d, want 0", rounds[0])
	}
	// A child is informed strictly after its parent, except children of the
	// origin (which is informed "before round 0" but labeled 0).
	for v := 1; v < 20; v++ {
		par := p.Parent(core.NodeID(v))
		if par != 0 && rounds[v] <= rounds[par] {
			t.Fatalf("node %d informed at %d, its parent %d at %d", v, rounds[v], par, rounds[par])
		}
		if rounds[v] > res.Rounds {
			t.Fatalf("node %d informed after completion", v)
		}
	}
}

func TestTreeUnavailableBeforeDone(t *testing.T) {
	g := graph.Line(10)
	p := New(g, core.Synchronous, sim.NewUniform(g), Config{Origin: 0}, core.NewRand(2))
	if _, ok := p.Tree(); ok {
		t.Fatal("tree must be unavailable before completion")
	}
	if !p.IsDone(0) || p.IsDone(5) {
		t.Fatal("initial informed state wrong")
	}
}

func TestExchangeBroadcast(t *testing.T) {
	g := graph.Barbell(20)
	p := New(g, core.Asynchronous, sim.NewUniform(g), Config{Origin: 0, Action: core.Exchange}, core.NewRand(4))
	if _, err := sim.New(g, core.Asynchronous, p, 5).Run(); err != nil {
		t.Fatal(err)
	}
	tree, ok := p.Tree()
	if !ok {
		t.Fatal("no tree")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBRRDeliversAlongShortestPaths sanity-checks the Lemma 2 mechanism:
// on the line, BRR delivers within ~sum of degrees rounds (here <= 2n+2).
func TestBRRLineExactness(t *testing.T) {
	g := graph.Line(40)
	p := New(g, core.Synchronous, sim.NewRoundRobin(g), Config{Origin: 0}, core.NewRand(8))
	res, err := sim.New(g, core.Synchronous, p, 9).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 2*g.N()+2 {
		t.Errorf("BRR on line took %d rounds, expected <= 2n+2 = %d", res.Rounds, 2*g.N()+2)
	}
}
