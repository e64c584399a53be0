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

func TestConformanceUniformAG(t *testing.T) {
	simtest.Run(t, "uniform-ag", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
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
	simtest.Run(t, "rr-ag", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
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
	simtest.Run(t, "broadcast-uniform", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return broadcast.New(g, model, sim.NewUniform(g),
			broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 2)))
	})
}

func TestConformanceBroadcastRR(t *testing.T) {
	simtest.Run(t, "broadcast-rr", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return broadcast.New(g, model, sim.NewRoundRobin(g),
			broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 2)))
	})
}

func TestConformanceISpread(t *testing.T) {
	simtest.Run(t, "ispread", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return ispread.New(g, model, ispread.Config{Root: 0},
			core.NewRand(core.SplitSeed(seed, 3)))
	})
}

func TestConformanceISpreadFull(t *testing.T) {
	simtest.Run(t, "ispread-full", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
		return ispread.New(g, model, ispread.Config{Root: 0, Mode: ispread.FullSpreadMode},
			core.NewRand(core.SplitSeed(seed, 3)))
	})
}

func TestConformanceTAGBRR(t *testing.T) {
	simtest.Run(t, "tag-brr", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
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
	simtest.Run(t, "tag-is", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
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
	simtest.Run(t, "uncoded", func(g *graph.Graph, model core.TimeModel, seed uint64) sim.Protocol {
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
