package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"algossip/internal/core"
	"algossip/internal/core/coretest"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/sim"
)

// TestBackendIdentity pins the decoder-backend half of the determinism
// contract end to end: rlnc picks a GF(2^m) node's backend from the kernel
// tier active when the node is built — bit-sliced on the pure-Go tier,
// byte rows on the vector ones — and the choice must never show. The same
// GossipSpec and seed executed once on each side of that rule gives a
// byte-identical Outcome (stopping time, per-node completion, traffic),
// rank-only and with payloads, whole-k and in generations, under loss and
// on the sharded engine.
func TestBackendIdentity(t *testing.T) {
	host := gf.ActiveTier()
	if host < gf.TierAVX2 {
		t.Skipf("kernel tier %s has no vector byte kernels: every GF(2^m) node is bit-sliced here, there is no second backend to compare", host)
	}
	g, err := graph.FromName("randreg", 32, core.NewRand(core.SplitSeed(7, 999)))
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		edit func(*GossipSpec)
	}{
		{"rank-only", func(*GossipSpec) {}},
		{"payload", func(s *GossipSpec) { s.PayloadLen = 64 }},
		{"generations", func(s *GossipSpec) { s.GenSize = 16 }},
		{"loss", func(s *GossipSpec) { s.LossRate = 0.2 }},
		{"shards", func(s *GossipSpec) { s.Shards = 2 }},
	}
	for _, q := range []int{4, 16, 256} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("gf=%d/%s", q, v.name), func(t *testing.T) {
				spec := GossipSpec{Graph: g, K: 40, Q: q}
				v.edit(&spec)
				run := func(tier gf.Tier) []byte {
					if err := gf.SetTier(tier); err != nil {
						t.Fatal(err)
					}
					defer func() { _ = gf.SetTier(host) }()
					o, err := Execute(spec, ProtocolUniformAG, 42)
					if err != nil {
						t.Fatalf("tier %s: %v", tier, err)
					}
					if !o.Result.Completed {
						t.Fatalf("tier %s: run did not complete (%d rounds)", tier, o.Result.Rounds)
					}
					out, err := json.Marshal(o)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				sliced, rows := run(gf.TierScalar), run(host)
				if !bytes.Equal(sliced, rows) {
					t.Errorf("outcome differs across backends:\n  sliced %s\nbyte rows %s", sliced, rows)
				}
			})
		}
	}
}

// TestGeneratorIdentity pins the other choice that must never show: the
// coefficient loops draw through core.Generator's inlined PCG, and skip in
// O(1), when the protocol's *rand.Rand came from core.NewRand, and through
// the *rand.Rand itself on any other source. Execute always builds the
// first kind, so the second is assembled here the way Execute assembles
// it, on the same stream behind a foreign source type, and must give the
// same Outcome field for field — EXCHANGE under loss, so emits, skips and
// the loss coin all interleave on the one stream.
func TestGeneratorIdentity(t *testing.T) {
	g, err := graph.FromName("randreg", 32, core.NewRand(core.SplitSeed(7, 999)))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
		for _, q := range []int{2, 256} {
			t.Run(fmt.Sprintf("%v/gf=%d", model, q), func(t *testing.T) {
				spec := GossipSpec{Graph: g, K: 40, Q: q, Model: model, Action: core.Exchange, LossRate: 0.2}.Normalize()
				want, err := Execute(spec, ProtocolUniformAG, seed)
				if err != nil || !want.Result.Completed {
					t.Fatalf("Execute: %v (completed %v)", err, want.Result.Completed)
				}
				p, err := algebraic.New(g, model, spec.Selector.build(g),
					algebraic.Config{RLNC: spec.RLNCConfig(), Action: spec.Action, LossRate: spec.LossRate},
					coretest.ForeignRand(core.SplitSeed(seed, 1)))
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SeedAll(spec.Assign(), nil); err != nil {
					t.Fatal(err)
				}
				res, err := sim.New(g, model, p, core.SplitSeed(seed, 2), sim.WithMaxRounds(spec.MaxRounds)).Run()
				if err != nil {
					t.Fatal(err)
				}
				got := Outcome{Result: res, NodeDoneRounds: p.DoneRounds(), Traffic: p.Traffic(),
					MessageBits: p.MessageBits(), TreeRounds: -1, TreeDepth: -1, TreeDiameter: -1}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("outcome differs with the source's type:\ncore.NewRand %+v\n     foreign %+v", want, got)
				}
			})
		}
	}
}
