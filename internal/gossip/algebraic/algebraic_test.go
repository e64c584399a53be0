package algebraic

import (
	"errors"
	"math"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

func rankOnlyCfg(k int) Config {
	return Config{RLNC: rlnc.Config{Field: gf.MustNew(2), K: k, RankOnly: true}}
}

func run(t *testing.T, g *graph.Graph, model core.TimeModel, cfg Config, seed uint64, maxRounds int) (*Protocol, sim.Result) {
	t.Helper()
	p, err := New(g, model, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedAll(RoundRobinAssign(cfg.RLNC.K, g.N()), nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, model, p, core.SplitSeed(seed, 2), sim.WithMaxRounds(maxRounds)).Run()
	if err != nil {
		t.Fatalf("did not complete: %v", err)
	}
	return p, res
}

// TestUniformAGCompletesEverywhere runs uniform algebraic gossip with
// EXCHANGE on every topology family, in both time models, and asserts the
// Theorem 1 upper bound with generous constants as well as the Ω(k) lower
// bound from Theorem 3's proof.
func TestUniformAGCompletesEverywhere(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Line(24),
		graph.Ring(24),
		graph.Grid(5, 5),
		graph.BinaryTree(31),
		graph.Complete(16),
		graph.Star(16),
		graph.Barbell(16),
		graph.Hypercube(4),
	}
	for _, g := range graphs {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			g, model := g, model
			t.Run(g.Name()+"/"+model.String(), func(t *testing.T) {
				k := g.N() / 2
				p, res := run(t, g, model, rankOnlyCfg(k), 7, 1<<18)
				n := g.N()
				// Upper bound: C * (k + log n + D) * Δ with a generous C.
				bound := 24 * float64(k+g.Diameter()+int(math.Log2(float64(n)))+1) * float64(g.MaxDegree())
				if float64(res.Rounds) > bound {
					t.Errorf("rounds = %d exceeds generous Theorem 1 bound %.0f", res.Rounds, bound)
				}
				// Lower bound Ω(k): at least (kn - k)/2n rounds in sync.
				if model == core.Synchronous {
					lower := (k*n - k) / (2 * n)
					if res.Rounds < lower {
						t.Errorf("rounds = %d below information-theoretic floor %d", res.Rounds, lower)
					}
				}
				// Every node completed, and no completion round exceeds the total.
				for v, r := range p.DoneRounds() {
					if r < 0 {
						t.Fatalf("node %d never completed", v)
					}
					if r > res.Rounds {
						t.Errorf("node %d done at round %d > total %d", v, r, res.Rounds)
					}
				}
			})
		}
	}
}

// TestDecodeCorrectness runs payload-mode AG on a grid and verifies every
// node decodes all original messages exactly.
func TestDecodeCorrectness(t *testing.T) {
	g := graph.Grid(4, 4)
	cfg := Config{RLNC: rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 16}}
	rng := core.NewRand(3)
	msgs := RandomMessages(cfg.RLNC, rng)
	p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedAll(RoundRobinAssign(8, 16), msgs); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(g, core.Synchronous, p, 5).Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		got, err := p.Node(core.NodeID(v)).Decode()
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		for i := range msgs {
			for j := range msgs[i].Payload {
				if got[i].Payload[j] != msgs[i].Payload[j] {
					t.Fatalf("node %d decoded message %d wrong at symbol %d", v, i, j)
				}
			}
		}
	}
}

// TestPushAndPullActions: one-way contacts complete in both time models,
// with whole-k and generation coding alike. The synchronous drive pins
// the direction itself — a one-way contact stages at most one packet per
// waking node per round — which is the regression check for generation
// mode, whose wake path used to be hard-wired to EXCHANGE.
func TestPushAndPullActions(t *testing.T) {
	g := graph.Ring(12)
	for _, action := range []core.Action{core.Push, core.Pull} {
		for _, genSize := range []int{0, 4} {
			cfg := rankOnlyCfg(6)
			cfg.Action = action
			cfg.GenSize = genSize
			mk := func(model core.TimeModel) *Protocol {
				p, err := New(g, model, sim.NewUniform(g), cfg, core.NewRand(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SeedAll(RoundRobinAssign(6, 12), nil); err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := mk(core.Asynchronous)
			if _, err := sim.New(g, core.Asynchronous, p, 2, sim.WithMaxRounds(1<<16)).Run(); err != nil {
				t.Fatalf("%v g=%d did not complete: %v", action, genSize, err)
			}
			p = mk(core.Synchronous)
			for round := 0; !p.Done(); round++ {
				if round > 1<<12 {
					t.Fatalf("%v g=%d: synchronous run did not complete", action, genSize)
				}
				p.BeginRound(round)
				for v := 0; v < g.N(); v++ {
					p.OnWake(core.NodeID(v))
				}
				if len(p.staged) > g.N() {
					t.Fatalf("%v g=%d round %d: %d packets staged by %d waking nodes",
						action, genSize, round, len(p.staged), g.N())
				}
				p.EndRound(round)
			}
		}
	}
}

// TestSeedAllValidation: wrong assignment lengths, messages whose Index
// disagrees with their position, a node outside the graph and, in payload
// mode, a payload of the wrong length are refused — with whole-k and
// generation coding alike (the generation path used to skip the index
// check and silently seed the wrong unknown; the last two used to panic
// in Seed) — and a refused call seeds nothing.
func TestSeedAllValidation(t *testing.T) {
	g := graph.Line(4)
	payloads := func(lens ...int) []rlnc.Message {
		msgs := make([]rlnc.Message, len(lens))
		for i, l := range lens {
			msgs[i] = rlnc.Message{Index: i, Payload: make([]byte, l)}
		}
		return msgs
	}
	for _, tc := range []struct {
		name    string
		payload int // PayloadLen; 0 is rank-only
		assign  []core.NodeID
		msgs    []rlnc.Message
	}{
		{"wrong assignment length", 0, make([]core.NodeID, 2), nil},
		{"misindexed messages", 0, RoundRobinAssign(3, 4), []rlnc.Message{{Index: 1}, {Index: 0}, {Index: 2}}},
		{"too few messages", 0, RoundRobinAssign(3, 4), []rlnc.Message{{Index: 0}}},
		{"node outside the graph", 0, []core.NodeID{0, 1, 99}, nil},
		{"negative node", 0, []core.NodeID{0, -1, 2}, nil},
		{"short payload", 16, RoundRobinAssign(3, 4), payloads(16, 8, 16)},
		{"long payload", 16, RoundRobinAssign(3, 4), payloads(16, 16, 17)},
	} {
		for _, genSize := range []int{0, 2} {
			cfg := rankOnlyCfg(3)
			if tc.payload > 0 {
				cfg.RLNC = rlnc.Config{Field: gf.MustNew(256), K: 3, PayloadLen: tc.payload}
			}
			cfg.GenSize = genSize
			p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(tc.assign, tc.msgs); err == nil {
				t.Errorf("%s, g=%d: accepted", tc.name, genSize)
			}
			for v := range g.N() {
				if r := p.Node(core.NodeID(v)).Rank(); r != 0 {
					t.Errorf("%s, g=%d: node %d seeded to rank %d before the refusal", tc.name, genSize, v, r)
				}
			}
		}
	}
}

// TestGenSizeValidation: a generation size outside [0, k] is the typed
// rlnc.GenSizeError, and a k that is not positive an error, whether or
// not a finished protocol is offered for reuse.
func TestGenSizeValidation(t *testing.T) {
	g := graph.Line(4)
	prev := func() *Protocol {
		p, err := New(g, core.Synchronous, sim.NewUniform(g), rankOnlyCfg(3), core.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, bad := range []int{-1, 4} {
		for _, offered := range []*Protocol{nil, prev()} {
			cfg := rankOnlyCfg(3)
			cfg.GenSize = bad
			_, err := Renew(offered, g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
			var gse *rlnc.GenSizeError
			if !errors.As(err, &gse) {
				t.Errorf("GenSize %d: got %v, want a GenSizeError", bad, err)
			}
		}
	}
	if _, err := Renew(prev(), g, core.Synchronous, sim.NewUniform(g), rankOnlyCfg(0), core.NewRand(1)); err == nil {
		t.Error("k = 0 was accepted over a finished protocol")
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := graph.Grid(4, 4)
	rounds := func() int {
		_, res := *new(*Protocol), sim.Result{}
		p, err := New(g, core.Asynchronous, sim.NewUniform(g), rankOnlyCfg(8), core.NewRand(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SeedAll(RoundRobinAssign(8, 16), nil); err != nil {
			t.Fatal(err)
		}
		res, err = sim.New(g, core.Asynchronous, p, 43).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	if a, b := rounds(), rounds(); a != b {
		t.Errorf("same seeds gave %d and %d rounds", a, b)
	}
}

// TestRankNeverDecreases drives a short run and samples ranks.
func TestRankNeverDecreases(t *testing.T) {
	g := graph.Ring(8)
	p, err := New(g, core.Asynchronous, sim.NewUniform(g), rankOnlyCfg(4), core.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedAll(RoundRobinAssign(4, 8), nil); err != nil {
		t.Fatal(err)
	}
	prev := make([]int, 8)
	for step := 0; step < 2000 && !p.Done(); step++ {
		p.OnWake(core.NodeID(step % 8))
		for v := 0; v < 8; v++ {
			r := p.Node(core.NodeID(v)).Rank()
			if r < prev[v] {
				t.Fatalf("rank of %d decreased %d -> %d", v, prev[v], r)
			}
			prev[v] = r
		}
	}
}

func TestAssignHelpers(t *testing.T) {
	rr := RoundRobinAssign(5, 3)
	want := []core.NodeID{0, 1, 2, 0, 1}
	for i := range want {
		if rr[i] != want[i] {
			t.Fatalf("RoundRobinAssign[%d] = %d, want %d", i, rr[i], want[i])
		}
	}
	single := SingleAssign(4, 2)
	for _, v := range single {
		if v != 2 {
			t.Fatal("SingleAssign wrong")
		}
	}
}

// TestLossRateCompletesAndSlows injects packet loss and verifies that the
// protocol still completes, with the mean slowdown tracking 1/(1-p).
func TestLossRateCompletesAndSlows(t *testing.T) {
	g := graph.Grid(5, 5)
	mean := func(loss float64) float64 {
		sum := 0.0
		const trials = 6
		for seed := uint64(0); seed < trials; seed++ {
			cfg := rankOnlyCfg(12)
			cfg.LossRate = loss
			p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg,
				core.NewRand(core.SplitSeed(seed, 5)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(RoundRobinAssign(12, 25), nil); err != nil {
				t.Fatal(err)
			}
			res, err := sim.New(g, core.Synchronous, p, core.SplitSeed(seed, 6)).Run()
			if err != nil {
				t.Fatalf("loss %v: %v", loss, err)
			}
			sum += float64(res.Rounds)
		}
		return sum / trials
	}
	clean := mean(0)
	lossy := mean(0.5)
	slowdown := lossy / clean
	// 1/(1-0.5) = 2; allow a wide band for Monte Carlo noise.
	if slowdown < 1.2 || slowdown > 4 {
		t.Errorf("slowdown at 50%% loss = %.2f, want roughly 2", slowdown)
	}
}

func TestLossRateValidation(t *testing.T) {
	g := graph.Line(4)
	for _, bad := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		cfg := rankOnlyCfg(2)
		cfg.LossRate = bad
		if _, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1)); err == nil {
			t.Errorf("loss rate %v accepted", bad)
		}
	}
}

// TestGenerationCodedCompletes runs generation-coded gossip end to end on
// both time models, with and without loss injection, and verifies
// completion and decode (payload mode).
func TestGenerationCodedCompletes(t *testing.T) {
	g := graph.Complete(12)
	cfg := Config{RLNC: rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 3}, GenSize: 3}
	for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
		for _, loss := range []float64{0, 0.25} {
			cfg.LossRate = loss
			rng := core.NewRand(33)
			msgs := RandomMessages(cfg.RLNC, rng)
			p, err := New(g, model, sim.NewUniform(g), cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(RoundRobinAssign(cfg.RLNC.K, g.N()), msgs); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.New(g, model, p, 34, sim.WithMaxRounds(1<<17)).Run(); err != nil {
				t.Fatalf("%s loss=%v: %v", model, loss, err)
			}
			for v := 0; v < g.N(); v++ {
				got, err := p.Node(core.NodeID(v)).Decode()
				if err != nil {
					t.Fatalf("%s loss=%v node %d: %v", model, loss, v, err)
				}
				for i := range msgs {
					if string(got[i].Payload) != string(msgs[i].Payload) {
						t.Fatalf("%s loss=%v node %d message %d mismatch", model, loss, v, i)
					}
				}
			}
			if tr := p.Traffic(); tr.Sent == 0 || (loss > 0) != (tr.Dropped > 0) {
				t.Fatalf("%s loss=%v: implausible traffic %+v", model, loss, tr)
			}
		}
	}
}
