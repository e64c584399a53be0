package algebraic_test

import (
	"testing"
	"unsafe"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/gossip/broadcast"
	"algossip/internal/gossip/tag"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// stagedWatch runs a protocol under the engine and, at every round's end —
// before the commit and after it — reads the staged list and the packet
// freelist of the algebraic protocol inside it.
type stagedWatch struct {
	sim.Protocol
	ag     *algebraic.Protocol
	arrays map[unsafe.Pointer]bool
	caps   map[int]bool // capacities of the staged list and the freelist
	peak   int          // most deliveries one round staged
}

func (w *stagedWatch) EndRound(round int) {
	w.look()
	w.Protocol.EndRound(round)
	w.look()
}

func (w *stagedWatch) look() {
	array, staged, stagedCap, freeCap := w.ag.StagedBuffers()
	if array == nil {
		return // nothing staged yet
	}
	w.arrays[array] = true
	w.caps[stagedCap], w.caps[freeCap] = true, true
	w.peak = max(w.peak, staged)
}

// TestStagedBuffersSizedOnce: through whole engine runs, the staged list
// and the packet freelist are allocated once, with room for 2n deliveries,
// and never regrow — each node wakes once a round, so no round stages
// more. Only the payload commit owns a second array, the regrouping buffer
// it trades places with, sized alike. A boosted class sends Boost packets
// a leg, and is the one case that may grow them.
func TestStagedBuffersSizedOnce(t *testing.T) {
	const n, k = 24, 12
	g := graph.Complete(n)
	rankOnly := rlnc.Config{Field: gf.MustNew(2), K: k, RankOnly: true}
	payload := rlnc.Config{Field: gf.MustNew(256), K: k, PayloadLen: 32}
	byzantine := make([]algebraic.NodeTraits, n)
	byzantine[0].Behavior = algebraic.Pollute
	byzantine[1].Behavior = algebraic.Replay
	byzantine[2].Behavior = algebraic.FreeRide
	byzantine[3].Slow = 3
	boosted := make([]algebraic.NodeTraits, n)
	for v := range boosted {
		boosted[v].Boost = 2
	}
	uniform := func(cfg algebraic.Config) func(t *testing.T) (sim.Protocol, *algebraic.Protocol) {
		return func(t *testing.T) (sim.Protocol, *algebraic.Protocol) {
			p, err := algebraic.New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(5, 1)))
			if err != nil {
				t.Fatal(err)
			}
			var msgs []rlnc.Message
			if !cfg.RLNC.RankOnly {
				msgs = algebraic.RandomMessages(cfg.RLNC, core.NewRand(core.SplitSeed(5, 11)))
			}
			assign := algebraic.RoundRobinAssign(k, n)
			if cfg.Traits != nil {
				assign = algebraic.RoundRobinAssignOver(k, algebraic.HonestNodes(cfg.Traits))
			}
			if err := p.SeedAll(assign, msgs); err != nil {
				t.Fatal(err)
			}
			return p, p
		}
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) (sim.Protocol, *algebraic.Protocol)
		arrays int  // distinct staged arrays a run may see
		grows  bool // a round stages more than 2n
	}{
		{"gf2", uniform(algebraic.Config{RLNC: rankOnly}), 1, false},
		{"gf256-payload", uniform(algebraic.Config{RLNC: payload}), 2, false},
		{"lossy-exchange", uniform(algebraic.Config{RLNC: rankOnly, LossRate: 0.3}), 1, false},
		{"push", uniform(algebraic.Config{RLNC: rankOnly, Action: core.Push}), 1, false},
		{"byzantine-mix", uniform(algebraic.Config{RLNC: rankOnly, Traits: byzantine, TraitSeed: 7}), 1, false},
		{"tag", func(t *testing.T) (sim.Protocol, *algebraic.Protocol) {
			stp := broadcast.New(g, core.Synchronous, sim.NewRoundRobin(g), broadcast.Config{Origin: 0},
				core.NewRand(core.SplitSeed(5, 3)))
			p, err := tag.Renew(nil, g, core.Synchronous, stp, rankOnly, core.NewRand(core.SplitSeed(5, 4)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Algebraic().SeedAll(algebraic.RoundRobinAssign(k, n), nil); err != nil {
				t.Fatal(err)
			}
			return p, p.Algebraic()
		}, 1, false},
		{"boosted", uniform(algebraic.Config{RLNC: rankOnly, Traits: boosted}), 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, ag := tc.build(t)
			w := &stagedWatch{Protocol: run, ag: ag, arrays: map[unsafe.Pointer]bool{}, caps: map[int]bool{}}
			if _, err := sim.New(g, core.Synchronous, w, core.SplitSeed(5, 2)).Run(); err != nil {
				t.Fatal(err)
			}
			if w.peak == 0 {
				t.Fatal("nothing was staged")
			}
			if tc.grows {
				if w.peak <= 2*n {
					t.Fatalf("a boosted run staged at most %d deliveries a round, want more than 2n = %d", w.peak, 2*n)
				}
				return
			}
			if len(w.caps) != 1 || !w.caps[2*n] {
				t.Errorf("staged list and freelist capacities %v, want only 2n = %d", w.caps, 2*n)
			}
			if len(w.arrays) != tc.arrays {
				t.Errorf("staged list lived in %d arrays, want %d", len(w.arrays), tc.arrays)
			}
		})
	}
}
