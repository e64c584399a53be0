package algebraic

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// makeTraits builds an n-node trait table with the first `count` nodes
// assigned the given profile (deterministic placement is fine for
// protocol-level tests; the harness uses seeded permutations).
func makeTraits(n, count int, t NodeTraits) []NodeTraits {
	out := make([]NodeTraits, n)
	for i := 0; i < count; i++ {
		out[i] = t
	}
	return out
}

// runTraits runs uniform AG with traits on a complete graph, seeding
// messages at honest nodes only, and returns the protocol and result.
func runTraits(t *testing.T, n, k int, cfg Config, model core.TimeModel, seed uint64) (*Protocol, sim.Result) {
	t.Helper()
	g := graph.Complete(n)
	p, err := New(g, model, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	assign := RoundRobinAssign(k, n)
	if cfg.Traits != nil {
		assign = RoundRobinAssignOver(k, HonestNodes(cfg.Traits))
	}
	if err := p.SeedAll(assign, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, model, p, core.SplitSeed(seed, 2), sim.WithMaxRounds(1<<16)).Run()
	if err != nil {
		t.Fatalf("did not complete: %v", err)
	}
	return p, res
}

// TestByzantineConvergesAllBehaviors: with a quarter of the nodes
// Byzantine (each behavior, in both time models), every node — honest and
// Byzantine alike — still reaches full rank, and the verification
// counters account for the attack.
func TestByzantineConvergesAllBehaviors(t *testing.T) {
	const n, k = 24, 12
	for _, b := range []Behavior{FreeRide, Replay, Pollute} {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			t.Run(b.String()+"/"+model.String(), func(t *testing.T) {
				cfg := rankOnlyCfg(k)
				cfg.Traits = makeTraits(n, n/4, NodeTraits{Behavior: b})
				p, res := runTraits(t, n, k, cfg, model, 11)
				for v, r := range p.DoneRounds() {
					if r < 0 {
						t.Fatalf("node %d never completed (rounds=%d)", v, res.Rounds)
					}
				}
				tr := p.Traffic()
				if tr.Verified == 0 {
					t.Error("Byzantine run recorded no verified packets")
				}
				if tr.VerifyOps != tr.Verified*(k+1) {
					t.Errorf("VerifyOps = %d, want Verified*(k+1) = %d", tr.VerifyOps, tr.Verified*(k+1))
				}
				if b == Pollute && tr.Polluted == 0 {
					t.Error("pollute run detected no polluted packets")
				}
				if b != Pollute && tr.Polluted != 0 {
					t.Errorf("non-pollute run detected %d polluted packets", tr.Polluted)
				}
			})
		}
	}
}

// TestHonestRunHasNoVerification: traits of all-honest zero values keep
// the verification counters at zero (verification only costs when
// pollution is possible), and a nil-traits run is byte-identically the
// classic protocol.
func TestHonestRunHasNoVerification(t *testing.T) {
	const n, k = 16, 8
	cfg := rankOnlyCfg(k)
	cfg.Traits = make([]NodeTraits, n)
	p, _ := runTraits(t, n, k, cfg, core.Synchronous, 3)
	tr := p.Traffic()
	if tr.Verified != 0 || tr.VerifyOps != 0 || tr.Polluted != 0 {
		t.Errorf("all-honest traits run recorded verification: %+v", tr)
	}

	base, baseRes := runTraits(t, n, k, rankOnlyCfg(k), core.Synchronous, 3)
	_, traitRes := runTraits(t, n, k, cfg, core.Synchronous, 3)
	if baseRes.Rounds != traitRes.Rounds || base.Traffic() != p.Traffic() {
		t.Errorf("all-honest traits diverged from classic run: %d vs %d rounds, %v vs %v",
			baseRes.Rounds, traitRes.Rounds, base.Traffic(), p.Traffic())
	}
}

// TestStragglersSlowButComplete: stragglers dilate the stopping time but
// never prevent convergence; the boost tier converges at least as fast as
// uniform capability.
func TestStragglersSlowButComplete(t *testing.T) {
	const n, k, seed = 24, 12, 9
	_, base := runTraits(t, n, k, rankOnlyCfg(k), core.Synchronous, seed)

	slow := rankOnlyCfg(k)
	slow.Traits = makeTraits(n, n/2, NodeTraits{Slow: 6})
	pSlow, resSlow := runTraits(t, n, k, slow, core.Synchronous, seed)
	for v, r := range pSlow.DoneRounds() {
		if r < 0 {
			t.Fatalf("straggler run: node %d never completed", v)
		}
	}
	if resSlow.Rounds < base.Rounds {
		t.Errorf("half the nodes 6x-throttled finished faster than baseline: %d < %d",
			resSlow.Rounds, base.Rounds)
	}

	boost := rankOnlyCfg(k)
	boost.Traits = makeTraits(n, n, NodeTraits{Boost: 3})
	pBoost, resBoost := runTraits(t, n, k, boost, core.Synchronous, seed)
	for v, r := range pBoost.DoneRounds() {
		if r < 0 {
			t.Fatalf("boost run: node %d never completed", v)
		}
	}
	if resBoost.Rounds > base.Rounds {
		t.Errorf("3x boost slower than baseline: %d > %d", resBoost.Rounds, base.Rounds)
	}
}

// TestAdversarialDeterminism: a fixed-seed adversarial trial reproduces
// rounds and every traffic counter exactly.
func TestAdversarialDeterminism(t *testing.T) {
	const n, k, seed = 20, 10, 17
	mk := func() (sim.Result, Protocol) {
		cfg := rankOnlyCfg(k)
		traits := makeTraits(n, n/5, NodeTraits{Behavior: Pollute})
		for i := n / 2; i < n/2+4; i++ {
			traits[i].Slow = 4
		}
		cfg.Traits = traits
		cfg.TraitSeed = 99
		p, res := runTraits(t, n, k, cfg, core.Synchronous, seed)
		return res, *p
	}
	r1, p1 := mk()
	r2, p2 := mk()
	if r1.Rounds != r2.Rounds {
		t.Errorf("rounds differ across identical runs: %d vs %d", r1.Rounds, r2.Rounds)
	}
	if p1.Traffic() != p2.Traffic() {
		t.Errorf("traffic differs across identical runs: %v vs %v", p1.Traffic(), p2.Traffic())
	}
}

// TestByzantinePayloadModes exercises replay and pollute through all three
// RLNC backends with real payloads (GF(2) bit, GF(16) sliced — on the
// pure-Go kernel tiers, byte rows elsewhere — and generic) —
// the replay path copies matrix rows, which is backend-specific code —
// and through generation coding, where the replayed row is the first
// non-empty generation's.
func TestByzantinePayloadModes(t *testing.T) {
	cases := []struct {
		name    string
		cfg     rlnc.Config
		genSize int
	}{
		{"gf2-bit", rlnc.Config{Field: gf.MustNew(2), K: 8, PayloadLen: 6}, 0},
		{"gf16-sliced", rlnc.Config{Field: gf.MustNew(16), K: 8, PayloadLen: 6}, 0},
		{"gf16-generic", rlnc.Config{Field: gf.MustNew(16), K: 8, PayloadLen: 6, ForceGeneric: true}, 0},
		{"gf16-sliced-generations", rlnc.Config{Field: gf.MustNew(16), K: 8, PayloadLen: 6}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			g := graph.Complete(n)
			cfg := Config{RLNC: tc.cfg, GenSize: tc.genSize}
			traits := makeTraits(n, 3, NodeTraits{Behavior: Replay})
			traits[3].Behavior = Pollute
			cfg.Traits = traits
			p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			msgs := RandomMessages(tc.cfg, core.NewRand(2))
			if err := p.SeedAll(RoundRobinAssignOver(tc.cfg.K, HonestNodes(traits)), msgs); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.New(g, core.Synchronous, p, 3, sim.WithMaxRounds(1<<15)).Run(); err != nil {
				t.Fatalf("did not complete: %v", err)
			}
			// Honest decode must recover the true payloads despite the attack.
			got, err := p.Node(core.NodeID(n - 1)).Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range got {
				if string(m.Payload) != string(msgs[i].Payload) {
					t.Fatalf("message %d decoded wrong payload", i)
				}
			}
		})
	}
}

// TestTraitsValidation: malformed trait tables and unsupported mode
// combinations are rejected eagerly.
func TestTraitsValidation(t *testing.T) {
	g := graph.Complete(8)
	mk := func(cfg Config) error {
		_, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
		return err
	}
	cfg := rankOnlyCfg(4)
	cfg.Traits = make([]NodeTraits, 7) // wrong length
	if mk(cfg) == nil {
		t.Error("wrong-length traits accepted")
	}
	cfg = rankOnlyCfg(4)
	cfg.Traits = makeTraits(8, 1, NodeTraits{Slow: 1})
	if mk(cfg) == nil {
		t.Error("slow=1 accepted")
	}
	cfg = rankOnlyCfg(4)
	cfg.Traits = makeTraits(8, 1, NodeTraits{Boost: -1})
	if mk(cfg) == nil {
		t.Error("negative boost accepted")
	}
	cfg = rankOnlyCfg(4)
	cfg.Traits = make([]NodeTraits, 8)
	p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableSharded(1, false); err == nil {
		t.Error("EnableSharded accepted a traited protocol")
	}
}
