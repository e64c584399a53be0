package tag

import (
	"slices"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/gossip/broadcast"
	"algossip/internal/gossip/ispread"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

func rankOnly(k int) rlnc.Config {
	return rlnc.Config{Field: gf.MustNew(2), K: k, RankOnly: true}
}

func newBRR(g *graph.Graph, model core.TimeModel, seed uint64) SpanningTree {
	return broadcast.New(g, model, sim.NewRoundRobin(g), broadcast.Config{Origin: 0},
		core.NewRand(core.SplitSeed(seed, 10)))
}

func newIS(g *graph.Graph, model core.TimeModel, seed uint64) SpanningTree {
	return ispread.New(g, model, ispread.Config{Root: 0}, core.NewRand(core.SplitSeed(seed, 11)))
}

func runTAG(t *testing.T, g *graph.Graph, model core.TimeModel, stp SpanningTree, k int, seed uint64) (*Protocol, sim.Result) {
	t.Helper()
	p, err := Renew(nil, g, model, stp, rankOnly(k), core.NewRand(core.SplitSeed(seed, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, model, p, core.SplitSeed(seed, 13), sim.WithMaxRounds(1<<18)).Run()
	if err != nil {
		t.Fatalf("TAG did not complete: %v", err)
	}
	return p, res
}

// TestTAGCompletesEverywhere exercises TAG with both spanning-tree
// protocols on bottlenecked and regular topologies, in both time models.
func TestTAGCompletesEverywhere(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Line(20),
		graph.Grid(5, 4),
		graph.Complete(16),
		graph.Barbell(20),
		graph.CliqueChain(3, 6),
		graph.BinaryTree(31),
	}
	for _, g := range graphs {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			for _, mk := range []struct {
				name string
				make func(*graph.Graph, core.TimeModel, uint64) SpanningTree
			}{
				{"BRR", newBRR},
				{"IS", newIS},
			} {
				p, res := runTAG(t, g, model, mk.make(g, model, 7), g.N()/2, 7)
				if res.Rounds <= 0 {
					t.Errorf("%s/%s/%s: nonpositive rounds", g.Name(), model, mk.name)
				}
				for v := 0; v < g.N(); v++ {
					if !p.Algebraic().Node(core.NodeID(v)).CanDecode() {
						t.Fatalf("%s/%s/%s: node %d incomplete", g.Name(), model, mk.name, v)
					}
				}
			}
		}
	}
}

// TestTAGTheorem4Bound asserts the O(k + log n + d(S) + t(S)) bound with a
// generous constant, using the measured t(S) and d(S) of the run itself.
func TestTAGTheorem4Bound(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Barbell(40), graph.Line(40), graph.Grid(6, 6)} {
		k := g.N()
		p, res := runTAG(t, g, core.Synchronous, newBRR(g, core.Synchronous, 3), k, 3)
		tree, ok := p.TreeProtocol().Tree()
		if !ok {
			t.Fatalf("%s: no tree after completion", g.Name())
		}
		tS := p.TreeRound()
		dS := tree.Diameter()
		logn := 0
		for v := 1; v < g.N(); v *= 2 {
			logn++
		}
		bound := 20 * (k + logn + dS + tS)
		if res.Rounds > bound {
			t.Errorf("%s: TAG took %d rounds, Theorem 4 bound (C=20) gives %d (t(S)=%d, d(S)=%d)",
				g.Name(), res.Rounds, bound, tS, dS)
		}
	}
}

// TestTAGTreeRoundAsync: t(S) is read off the ledger's clock, so it is
// there in the asynchronous model too (the engine calls no EndRound to
// latch it in), and S's own stamps are in rounds of the run although S is
// handed only every other wakeup.
func TestTAGTreeRoundAsync(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(5, 4), graph.Barbell(20), graph.Line(20)} {
		for name, mk := range map[string]func(*graph.Graph, core.TimeModel, uint64) SpanningTree{"BRR": newBRR, "IS": newIS} {
			stp := mk(g, core.Asynchronous, 7)
			p, res := runTAG(t, g, core.Asynchronous, stp, g.N()/2, 7)
			tS := p.TreeRound()
			if tS < 0 || tS > res.Rounds {
				t.Errorf("%s/%s: t(S) = %d, want within [0, %d]", g.Name(), name, tS, res.Rounds)
			}
			last := slices.Max(stp.(interface{ DoneRounds() []int }).DoneRounds())
			if tS < last || tS > last+1 {
				t.Errorf("%s/%s: t(S) = %d, S's last node joined at round %d", g.Name(), name, tS, last)
			}
		}
	}
}

// TestTAGBeatsUniformAGOnBarbell reproduces the paper's headline
// comparison: for k = n on the barbell graph, uniform AG needs Ω(n²)
// rounds while TAG+BRR needs Θ(n).
func TestTAGBeatsUniformAGOnBarbell(t *testing.T) {
	g := graph.Barbell(96) // the Θ(n²) vs Θ(n) gap needs n past the constants
	k := g.N()

	_, tagRes := runTAG(t, g, core.Synchronous, newBRR(g, core.Synchronous, 5), k, 5)

	agp, err := algebraic.New(g, core.Synchronous, sim.NewUniform(g),
		algebraic.Config{RLNC: rankOnly(k)}, core.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := agp.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
		t.Fatal(err)
	}
	agRes, err := sim.New(g, core.Synchronous, agp, 7, sim.WithMaxRounds(1<<18)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if tagRes.Rounds*2 > agRes.Rounds {
		t.Errorf("TAG (%d rounds) not clearly faster than uniform AG (%d rounds) on %s",
			tagRes.Rounds, agRes.Rounds, g.Name())
	}
}

// TestTAGDecodeCorrectness runs payload-mode TAG and verifies decoding.
func TestTAGDecodeCorrectness(t *testing.T) {
	g := graph.Barbell(16)
	rcfg := rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 8}
	rng := core.NewRand(21)
	msgs := algebraic.RandomMessages(rcfg, rng)
	p, err := Renew(nil, g, core.Synchronous, newBRR(g, core.Synchronous, 21), rcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(8, 16), msgs); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(g, core.Synchronous, p, 22).Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		got, err := p.Algebraic().Node(core.NodeID(v)).Decode()
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		for i := range msgs {
			for j := range msgs[i].Payload {
				if got[i].Payload[j] != msgs[i].Payload[j] {
					t.Fatalf("node %d decoded message %d wrong", v, i)
				}
			}
		}
	}
}

// TestPhaseInterleaving checks the wakeup-parity contract: the spanning
// tree protocol sees exactly the odd wakeups.
func TestPhaseInterleaving(t *testing.T) {
	g := graph.Line(6)
	probe := &stpProbe{SpanningTree: newBRR(g, core.Synchronous, 9)}
	p, err := Renew(nil, g, core.Synchronous, probe, rankOnly(3), core.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(3, 6), nil); err != nil {
		t.Fatal(err)
	}
	// Wake node 2 four times: STP must see wakeups 1 and 3 only.
	for i := 0; i < 4; i++ {
		p.OnWake(2)
	}
	if probe.wakes[2] != 2 {
		t.Errorf("STP saw %d wakeups of node 2, want 2", probe.wakes[2])
	}
}

// stpProbe is a SpanningTree that counts its OnWake calls per node.
type stpProbe struct {
	SpanningTree
	wakes [64]int
}

func (s *stpProbe) OnWake(v core.NodeID) { s.wakes[v]++; s.SpanningTree.OnWake(v) }
