package gossip_test

// Conformance battery: every protocol in the repository passes the shared
// sim.Protocol contract checks (completion, determinism, monotone Done,
// arbitrary wakeup tolerance, synchronous staging discipline).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/gossip/broadcast"
	"algossip/internal/gossip/ispread"
	"algossip/internal/gossip/tag"
	"algossip/internal/gossip/uncoded"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
	"algossip/internal/sim/simtest"
)

func rankOnly(k int) rlnc.Config {
	return rlnc.Config{Field: gf.MustNew(2), K: k, RankOnly: true}
}

// conserved is the first clause of the traffic invariant: a packet counted
// as sent has met exactly one verdict. It holds whenever nothing is staged
// — after any EndRound or CommitRound, and at every instant of an
// asynchronous run — by construction: a topology changes only between
// rounds (sim.TopologyAware), so nothing but a verdict takes a staged
// packet away.
func conserved(t *testing.T, name string, tr gossip.Traffic) {
	t.Helper()
	if tr.Sent != tr.Helpful+tr.Useless+tr.Dropped+tr.Polluted {
		t.Errorf("%s: sent %d != helpful %d + useless %d + dropped %d + polluted %d",
			name, tr.Sent, tr.Helpful, tr.Useless, tr.Dropped, tr.Polluted)
	}
}

// runConformance is simtest.Run with the traffic invariant asserted on
// every protocol instance the battery builds, once its check is over (each
// check ends on a round boundary or runs asynchronously).
func runConformance(t *testing.T, name string, factory simtest.Factory) {
	simtest.Run(t, name, func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		p := factory(g, model, seed)
		t.Cleanup(func() {
			conserved(t, fmt.Sprintf("%s/%s/%s/seed=%d", name, g.Name(), model, seed),
				p.(interface{ Traffic() gossip.Traffic }).Traffic())
		})
		return p
	})
}

// TestTrafficConservation asserts the same identity at the end of whole
// trials through harness.Execute: all five protocols, both time models,
// static and dynamic topologies, and the regimes that add a verdict or an
// executor — loss (Dropped), a mixed Byzantine population (Polluted), the
// sharded engine and generation coding.
func TestTrafficConservation(t *testing.T) {
	g := graph.Torus(4, 4)
	type cell struct {
		name  string
		proto harness.Protocol
		spec  harness.GossipSpec
	}
	var cells []cell
	dynamics := map[string]*harness.Dynamics{
		"static": nil,
		"edge":   {Kind: "edge", Rate: 0.25},
		"churn":  {Kind: "churn", Rate: 0.2, Period: 8},
	}
	for _, proto := range []harness.Protocol{harness.ProtocolUniformAG, harness.ProtocolUncoded,
		harness.ProtocolTAGRR, harness.ProtocolTAGUniform, harness.ProtocolTAGIS} {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			for dname, dyn := range dynamics {
				if dyn != nil && proto != harness.ProtocolUniformAG && proto != harness.ProtocolUncoded {
					continue // a tree protocol needs a static topology (TestDynamicRejectsTreeProtocols)
				}
				cells = append(cells, cell{fmt.Sprintf("%v/%s/%s", proto, model, dname), proto,
					harness.GossipSpec{Graph: g, K: 8, Model: model, Dynamics: dyn}})
			}
		}
	}
	mix := &harness.Adversary{Kind: "byzantine", Frac: 0.2, Mode: "mix"}
	for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
		cells = append(cells,
			cell{fmt.Sprintf("loss/%s", model), harness.ProtocolUniformAG,
				harness.GossipSpec{Graph: g, K: 8, Model: model, LossRate: 0.2}},
			cell{fmt.Sprintf("adversary/%s", model), harness.ProtocolUniformAG,
				harness.GossipSpec{Graph: g, K: 8, Model: model, Adversary: mix}},
			cell{fmt.Sprintf("adversary+loss/%s", model), harness.ProtocolUniformAG,
				harness.GossipSpec{Graph: g, K: 8, Model: model, Adversary: mix, LossRate: 0.1}},
			cell{fmt.Sprintf("generations+payload/%s", model), harness.ProtocolUniformAG,
				harness.GossipSpec{Graph: g, K: 8, Q: 256, Model: model, GenSize: 3, PayloadLen: 4, LossRate: 0.1}})
	}
	for _, shards := range []int{1, 2} {
		cells = append(cells, cell{fmt.Sprintf("shards=%d+generations+edge", shards), harness.ProtocolUniformAG,
			harness.GossipSpec{Graph: g, K: 8, GenSize: 4, Shards: shards, LossRate: 0.1, Dynamics: dynamics["edge"]}})
	}
	var all gossip.Traffic
	for _, c := range cells {
		c.spec.MaxRounds = 1 << 17
		for seed := uint64(1); seed <= 3; seed++ {
			o, err := harness.Execute(c.spec, c.proto, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if o.Traffic.Sent == 0 {
				t.Fatalf("%s seed %d: nothing was sent", c.name, seed)
			}
			conserved(t, fmt.Sprintf("%s seed %d", c.name, seed), o.Traffic)
			all.Add(o.Traffic)
		}
	}
	if all.Helpful == 0 || all.Useless == 0 || all.Dropped == 0 || all.Polluted == 0 {
		t.Fatalf("a verdict never occurred over the whole table: %+v", all)
	}
}

func TestConformanceUniformAG(t *testing.T) {
	runConformance(t, "uniform-ag", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		k := g.N() / 2
		p, err := algebraic.New(g, model, sim.NewUniform(g),
			algebraic.Config{RLNC: rankOnly(k)}, core.NewRand(core.SplitSeed(seed, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
			t.Fatal(err)
		}
		return p
	})
}

func TestConformanceRoundRobinAG(t *testing.T) {
	runConformance(t, "rr-ag", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		k := g.N() / 2
		p, err := algebraic.New(g, model, sim.NewRoundRobin(g),
			algebraic.Config{RLNC: rankOnly(k)}, core.NewRand(core.SplitSeed(seed, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
			t.Fatal(err)
		}
		return p
	})
}

func TestConformanceBroadcastUniform(t *testing.T) {
	runConformance(t, "broadcast-uniform", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return broadcast.New(g, model, sim.NewUniform(g),
			broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 2)))
	})
}

func TestConformanceBroadcastRR(t *testing.T) {
	runConformance(t, "broadcast-rr", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return broadcast.New(g, model, sim.NewRoundRobin(g),
			broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 2)))
	})
}

func TestConformanceISpread(t *testing.T) {
	runConformance(t, "ispread", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return ispread.New(g, model, ispread.Config{Root: 0},
			core.NewRand(core.SplitSeed(seed, 3)))
	})
}

func TestConformanceISpreadFull(t *testing.T) {
	runConformance(t, "ispread-full", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return ispread.New(g, model, ispread.Config{Root: 0, Mode: ispread.FullSpreadMode},
			core.NewRand(core.SplitSeed(seed, 3)))
	})
}

func TestConformanceTAGBRR(t *testing.T) {
	runConformance(t, "tag-brr", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		k := g.N() / 2
		stp := broadcast.New(g, model, sim.NewRoundRobin(g),
			broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 4)))
		p, err := tag.New(g, model, stp, rankOnly(k), core.NewRand(core.SplitSeed(seed, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
			t.Fatal(err)
		}
		return p
	})
}

func TestConformanceTAGIS(t *testing.T) {
	runConformance(t, "tag-is", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		k := g.N() / 2
		stp := ispread.New(g, model, ispread.Config{Root: 0},
			core.NewRand(core.SplitSeed(seed, 4)))
		p, err := tag.New(g, model, stp, rankOnly(k), core.NewRand(core.SplitSeed(seed, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
			t.Fatal(err)
		}
		return p
	})
}

func TestConformanceUncoded(t *testing.T) {
	runConformance(t, "uncoded", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		k := g.N() / 2
		p := uncoded.New(g, model, sim.NewUniform(g),
			uncoded.Config{K: k}, core.NewRand(core.SplitSeed(seed, 1)))
		p.SeedAll(algebraic.RoundRobinAssign(k, g.N()))
		return p
	})
}

// TestConservationLaws checks the accounting identity that the facade
// example relies on: at completion of algebraic gossip, total helpful
// receptions equal k·n minus the total initially seeded rank.
func TestConservationLaws(t *testing.T) {
	graphs := []*graph.Graph{graph.Line(14), graph.Complete(12), graph.Barbell(14)}
	for _, g := range graphs {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			k := g.N() / 2
			p, err := algebraic.New(g, model, sim.NewUniform(g),
				algebraic.Config{RLNC: rankOnly(k)}, core.NewRand(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.New(g, model, p, 8, sim.WithMaxRounds(1<<17)).Run(); err != nil {
				t.Fatal(err)
			}
			tr := p.Traffic()
			want := k*g.N() - k // each of k seeds contributes one initial rank
			if tr.Helpful != want {
				t.Errorf("%s/%s: helpful = %d, want exactly %d", g.Name(), model, tr.Helpful, want)
			}
			if tr.Sent < tr.Received() {
				t.Errorf("%s/%s: received %d exceeds sent %d", g.Name(), model, tr.Received(), tr.Sent)
			}
		}
	}
}

// TestBroadcastConservation: a completed broadcast performs exactly n-1
// helpful informs.
func TestBroadcastConservation(t *testing.T) {
	g := graph.Grid(4, 4)
	p := broadcast.New(g, core.Synchronous, sim.NewUniform(g),
		broadcast.Config{Origin: 0}, core.NewRand(3))
	if _, err := sim.New(g, core.Synchronous, p, 4).Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.Traffic().Helpful; got != g.N()-1 {
		t.Fatalf("helpful informs = %d, want %d", got, g.N()-1)
	}
}

// TestPoissonClockAGMatchesSlotted runs uniform algebraic gossip under the
// continuous Poisson-clock scheduler (paper footnote 2) and under the
// slotted asynchronous scheduler, and checks the stopping times agree in
// round units up to Monte Carlo noise.
func TestPoissonClockAGMatchesSlotted(t *testing.T) {
	g := graph.Grid(4, 4)
	k := 8
	const trials = 8
	var slotted, poisson float64
	for seed := uint64(0); seed < trials; seed++ {
		mk := func(stream uint64) *algebraic.Protocol {
			p, err := algebraic.New(g, core.Asynchronous, sim.NewUniform(g),
				algebraic.Config{RLNC: rankOnly(k)}, core.NewRand(core.SplitSeed(seed, stream)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(algebraic.RoundRobinAssign(k, g.N()), nil); err != nil {
				t.Fatal(err)
			}
			return p
		}
		res, err := sim.New(g, core.Asynchronous, mk(1), core.SplitSeed(seed, 2)).Run()
		if err != nil {
			t.Fatal(err)
		}
		slotted += float64(res.Rounds)
		pres, err := simtest.RunPoisson(g, mk(3), core.SplitSeed(seed, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		poisson += pres.Time
	}
	slotted /= trials
	poisson /= trials
	ratio := poisson / slotted
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("poisson time %.1f vs slotted rounds %.1f (ratio %.2f), want ~1",
			poisson, slotted, ratio)
	}
}

// TestOneGenerationIsClassic pins the unification rule end to end: the
// paper's whole-k protocol is generation coding with one generation, so
// GenSize == K and GenSize == 0 produce the same Outcome — rounds,
// timeslots, every per-node completion round, every traffic counter —
// for the same seed, on every backend, time model, engine and coding
// mode. Only the protocol's reported name and wire size (the generation
// tag) tell the two apart.
func TestOneGenerationIsClassic(t *testing.T) {
	const n, k = 16, 6
	for _, gname := range []string{"complete", "ring", "randreg"} {
		g, err := graph.FromName(gname, n, core.NewRand(core.SplitSeed(3, 999)))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{2, 251, 256} {
			for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
				for _, payload := range []int{0, 3} {
					for _, loss := range []float64{0, 0.1} {
						for _, shards := range []int{0, 2} {
							if shards > 0 && model == core.Asynchronous {
								continue // sharded execution is synchronous-only
							}
							name := fmt.Sprintf("%s/q%d/%s/r%d/loss%v/shards%d", gname, q, model, payload, loss, shards)
							spec := harness.GossipSpec{Graph: g, Model: model, K: k, Q: q,
								PayloadLen: payload, LossRate: loss, Shards: shards}
							run := func(genSize int) []byte {
								spec.GenSize = genSize
								o, err := harness.Execute(spec, harness.ProtocolUniformAG, 17)
								if err != nil {
									t.Fatalf("%s g=%d: %v", name, genSize, err)
								}
								o.Result.Protocol, o.MessageBits = "", 0
								b, err := json.Marshal(o)
								if err != nil {
									t.Fatal(err)
								}
								return b
							}
							if classic, one := run(0), run(k); !bytes.Equal(classic, one) {
								t.Errorf("%s: one generation diverged from classic:\n g=0 %s\n g=k %s", name, classic, one)
							}
						}
					}
				}
			}
		}
	}
}
