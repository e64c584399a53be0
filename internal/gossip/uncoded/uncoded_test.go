package uncoded

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

func TestUncodedCompletes(t *testing.T) {
	graphs := []*graph.Graph{graph.Line(16), graph.Complete(16), graph.Grid(4, 4)}
	for _, g := range graphs {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			p := New(g, model, sim.NewUniform(g), Config{K: 8}, core.NewRand(1))
			p.SeedAll(make([]core.NodeID, 8)) // all messages at node 0
			res, err := sim.New(g, model, p, 2, sim.WithMaxRounds(1<<16)).Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name(), model, err)
			}
			for v := 0; v < g.N(); v++ {
				if p.knownCnt[v] != 8 {
					t.Fatalf("%s/%s: node %d knows %d/8", g.Name(), model, v, p.knownCnt[v])
				}
			}
			for _, r := range p.DoneRounds() {
				if r < 0 || r > res.Rounds {
					t.Fatalf("%s/%s: bad done round %d", g.Name(), model, r)
				}
			}
		}
	}
}

func TestSeedValidation(t *testing.T) {
	g := graph.Line(4)
	p := New(g, core.Synchronous, sim.NewUniform(g), Config{K: 3}, core.NewRand(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range message")
		}
	}()
	p.Seed(0, 3)
}

func TestPushPullActions(t *testing.T) {
	g := graph.Ring(10)
	for _, a := range []core.Action{core.Push, core.Pull} {
		p := New(g, core.Asynchronous, sim.NewUniform(g), Config{K: 5, Action: a}, core.NewRand(3))
		p.SeedAll([]core.NodeID{0, 2, 4, 6, 8})
		if _, err := sim.New(g, core.Asynchronous, p, 4, sim.WithMaxRounds(1<<16)).Run(); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
}

// TestCodingBeatsUncodedOnCompleteGraph reproduces the motivation for
// network coding (experiment A3): for k = n on the complete graph, RLNC
// finishes in Θ(n) rounds while store-and-forward suffers the coupon
// collector's extra log factor. We assert the averaged ratio exceeds 1.
func TestCodingBeatsUncodedOnCompleteGraph(t *testing.T) {
	g := graph.Complete(48)
	k := g.N()
	trials := 3
	var coded, plain int
	for seed := uint64(0); seed < uint64(trials); seed++ {
		up := New(g, core.Synchronous, sim.NewUniform(g), Config{K: k}, core.NewRand(core.SplitSeed(seed, 1)))
		up.SeedAll(algebraic.RoundRobinAssign(k, g.N()))
		upRes, err := sim.New(g, core.Synchronous, up, core.SplitSeed(seed, 2), sim.WithMaxRounds(1<<16)).Run()
		if err != nil {
			t.Fatal(err)
		}
		plain += upRes.Rounds

		ap, err := algebraic.New(g, core.Synchronous, sim.NewUniform(g),
			algebraic.Config{RLNC: rlnc.Config{Field: gf.MustNew(256), K: k, RankOnly: true}},
			core.NewRand(core.SplitSeed(seed, 3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
			t.Fatal(err)
		}
		apRes, err := sim.New(g, core.Synchronous, ap, core.SplitSeed(seed, 4), sim.WithMaxRounds(1<<16)).Run()
		if err != nil {
			t.Fatal(err)
		}
		coded += apRes.Rounds
	}
	if plain <= coded {
		t.Errorf("uncoded (%d rounds total) did not lose to RLNC (%d rounds total)", plain, coded)
	}
}
