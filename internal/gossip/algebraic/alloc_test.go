package algebraic

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// steadyProtocol runs a protocol to completion so every node is at full
// rank — the steady state in which the pooled hot path must be
// allocation-free.
func steadyProtocol(t testing.TB, q int) *Protocol {
	return steadyProtocolCfg(t, rlnc.Config{Field: gf.MustNew(q), K: 8, RankOnly: true})
}

func steadyProtocolCfg(t testing.TB, rcfg rlnc.Config) *Protocol {
	t.Helper()
	g := graph.Complete(16)
	cfg := Config{RLNC: rcfg}
	p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedAll(RoundRobinAssign(8, g.N()), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(g, core.Synchronous, p, core.SplitSeed(3, 2)).Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

// unsaturatedPayloadProtocol returns a GF(256) protocol carrying payloads
// (rcfg, k = 8) in which message 7 of 8 was never seeded: ranks settle
// at 7 and nobody can ever decode, so every send of every later round is
// a real emit — draws at wake, deferred fill, grouped commit, a full
// (useless) elimination at the receiver — and never the counter-only skip
// a saturated receiver gets. Its commit passes run on at most procs
// workers.
func unsaturatedPayloadProtocol(t testing.TB, rcfg rlnc.Config, procs int) *Protocol {
	t.Helper()
	g := graph.Complete(16)
	p, err := New(g, core.Synchronous, sim.NewUniform(g), Config{RLNC: rcfg}, core.NewRand(core.SplitSeed(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	p.fill.procs = procs
	for _, msg := range RandomMessages(rcfg, core.NewRand(4))[:7] {
		p.Seed(core.NodeID(msg.Index), msg)
	}
	for round := 0; round < 64; round++ {
		p.BeginRound(round)
		for v := 0; v < g.N(); v++ {
			p.OnWake(core.NodeID(v))
		}
		p.EndRound(round)
	}
	for v := 0; v < g.N(); v++ {
		if p.Node(core.NodeID(v)).Rank() != 7 {
			t.Fatalf("node %d has rank %d after the warm-up, want 7", v, p.Node(core.NodeID(v)).Rank())
		}
	}
	return p
}

// TestAllocsSteadyStateRound pins zero allocations for a whole
// synchronous protocol round (every node wakes, stages, applies) once
// ranks have saturated: the packet freelist, the staged buffer, and the
// matrix scratch are all warm, so nothing on the send/receive path may
// allocate — for the bit-packed GF(2), bit-sliced GF(2^m), and generic
// backends alike (the "-sliced" rows are bit-sliced on the pure-Go kernel
// tiers, which CI's forced-tier legs run, and byte rows on avx2/gfni).
// The last two rows never saturate (unsaturatedPayloadProtocol): they
// hold the deferred-fill path — factor slab, grouping scratch, fused
// payload kernel — to the same zero, on one worker and, with 4 KiB byte
// rows on every tier (3.5 commit grains a round), split over three: the
// Crew's goroutines, the parts and their counters are reused too.
func TestAllocsSteadyStateRound(t *testing.T) {
	saturated := func(cfg rlnc.Config) func(testing.TB) *Protocol {
		return func(t testing.TB) *Protocol { return steadyProtocolCfg(t, cfg) }
	}
	unsaturated := func(cfg rlnc.Config, procs int) func(testing.TB) *Protocol {
		return func(t testing.TB) *Protocol { return unsaturatedPayloadProtocol(t, cfg, procs) }
	}
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Protocol
	}{
		{"gf2-bit", saturated(rlnc.Config{Field: gf.MustNew(2), K: 8, RankOnly: true})},
		{"gf16-sliced", saturated(rlnc.Config{Field: gf.MustNew(16), K: 8, RankOnly: true})},
		{"gf256-sliced", saturated(rlnc.Config{Field: gf.MustNew(256), K: 8, RankOnly: true})},
		{"gf256-generic", saturated(rlnc.Config{Field: gf.MustNew(256), K: 8, RankOnly: true, ForceGeneric: true})},
		{"gf256-payload", unsaturated(rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 200}, 1)},
		{"gf256-payload-split", unsaturated(rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 4096, ForceGeneric: true}, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			n := 16
			round := 1 << 20 // past any real round; only the clock label
			// Warm one round so staged/freelist reach their steady capacity.
			p.BeginRound(round)
			for v := 0; v < n; v++ {
				p.OnWake(core.NodeID(v))
			}
			p.EndRound(round)
			useless := p.Traffic().Useless
			allocs := testing.AllocsPerRun(50, func() {
				round++
				p.BeginRound(round)
				for v := 0; v < n; v++ {
					p.OnWake(core.NodeID(v))
				}
				p.EndRound(round)
			})
			if allocs != 0 {
				t.Fatalf("steady-state round allocated %.1f times, want 0", allocs)
			}
			if f := p.fill; f != nil && f.procs > 1 && f.width(16) < 2 {
				t.Fatalf("a round streaming %d bytes ran its commit on one worker", f.streamed)
			}
			if p.Traffic().Useless == useless {
				t.Fatal("steady-state rounds delivered nothing")
			}
		})
	}
}

// TestAllocsSteadyStateShardedRound pins zero allocations for a sharded
// round as the engine drives it at two shards — two WakeShard calls, so
// CommitRound runs two workers, one of them on its own goroutine — once
// ranks have settled. The commit's worker scratch (counters, event
// lists, the goroutine bodies) lives on the shardCore and the warm-up
// below has already grown it, so neither the fan-out nor the merge may
// allocate. Retirement is off: with it a saturated graph wakes nobody and
// the round would be empty. The GF(2) row seeds all eight messages, so
// every send of a settled round is a counter-only slot; the GF(256)
// payload row seeds seven, so ranks settle at 7 for good and every send
// is a real emit from a source two workers share — draws and payload
// combine into the slot's packet, on the emitting worker's stack — and a
// useless reduce at commit.
func TestAllocsSteadyStateShardedRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rcfg   rlnc.Config
		seeded int
	}{
		{"gf2", rlnc.Config{Field: gf.MustNew(2), K: 8, RankOnly: true}, 8},
		{"gf256-payload", rlnc.Config{Field: gf.MustNew(256), K: 8, PayloadLen: 64}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Ring(256) // four bitmap words
			p, err := New(g, core.Synchronous, sim.NewUniform(g), Config{RLNC: tc.rcfg, GenSize: 4}, core.NewRand(core.SplitSeed(3, 1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range RandomMessages(tc.rcfg, core.NewRand(4))[:tc.seeded] {
				p.Seed(core.NodeID(msg.Index), msg)
			}
			if err := p.EnableSharded(core.SplitSeed(3, 12), false); err != nil {
				t.Fatal(err)
			}
			words := len(p.ActiveWords())
			round := 0
			step := func() {
				round++
				p.BeginRound(round)
				p.WakeShard(0, words/2)
				p.WakeShard(words/2, words)
				p.CommitRound(round)
			}
			settled := func() bool {
				for v := range g.N() {
					if p.Node(core.NodeID(v)).Rank() < tc.seeded {
						return false
					}
				}
				return true
			}
			for !settled() {
				if round > 10*g.N() {
					t.Fatalf("ranks did not settle at %d in %d rounds", tc.seeded, round)
				}
				step()
			}
			// A node that never completes raises no commit event, so only
			// the saturating row has merged any.
			if len(p.shard.workers) != 2 || tc.seeded == tc.rcfg.K && cap(p.shard.merged) == 0 {
				t.Fatalf("warm-up did not commit on two workers: %d workers, merged cap %d",
					len(p.shard.workers), cap(p.shard.merged))
			}
			step() // every slot's packet has met its largest generation
			sent := p.Traffic().Sent
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Fatalf("steady-state sharded round allocated %.1f times, want 0", allocs)
			}
			if p.Traffic().Sent == sent {
				t.Fatal("steady-state rounds sent nothing")
			}
		})
	}
}

// TestPacketPoolRecyclesOnLossAndDynamics checks the freelist keeps
// packets on every exit path: emitted-then-lost packets return to the pool
// instead of leaking to the GC, and after a churn reset — which arrives
// between rounds, with nothing staged — the next round's deliveries all
// land back in it at EndRound.
func TestPacketPoolRecyclesOnLossAndDynamics(t *testing.T) {
	g := graph.Complete(8)
	cfg := Config{
		RLNC:     rlnc.Config{Field: gf.MustNew(2), K: 4, RankOnly: true},
		LossRate: 0.5,
	}
	p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedAll(RoundRobinAssign(4, g.N()), nil); err != nil {
		t.Fatal(err)
	}
	round := func(r int) (staged int) {
		p.BeginRound(r)
		for v := 0; v < g.N(); v++ {
			p.OnWake(core.NodeID(v))
		}
		staged = len(p.staged)
		p.EndRound(r)
		return staged
	}
	for r := 0; r < 20; r++ {
		round(r)
	}
	if len(p.free) == 0 {
		t.Fatal("freelist empty after lossy rounds")
	}
	// By now every node is complete and sends to full-rank receivers skip
	// the pool entirely; churn-reset every node so the next round stages
	// real deliveries again.
	all := make([]core.NodeID, g.N())
	for v := range all {
		all[v] = core.NodeID(v)
	}
	p.OnTopologyChange(sim.TopologyEvent{Round: 20, Graph: g, Reset: all})
	before := len(p.free)
	staged := round(20)
	if staged == 0 {
		t.Fatal("nothing staged")
	}
	if len(p.staged) != 0 {
		t.Fatalf("%d staged deliveries survived EndRound", len(p.staged))
	}
	if want := max(before, staged); len(p.free) < want {
		t.Fatalf("freelist %d after the round, want at least %d (%d pooled before, %d staged)",
			len(p.free), want, before, staged)
	}
}

// TestSimTrajectorySlicedVsGeneric pins the backend-selection determinism
// contract at whole-simulation scale: a fixed-seed uniform-AG run over
// GF(2^m) produces the identical stopping time and per-node completion
// rounds whether the codec uses the bit-sliced backend or the generic one
// (ForceGeneric) — backend selection never moves a trajectory. The native
// side is bit-sliced on the pure-Go kernel tiers (CI's forced-tier legs);
// harness.TestBackendIdentity is the same check across tiers on one host.
func TestSimTrajectorySlicedVsGeneric(t *testing.T) {
	for _, q := range []int{4, 16, 256} {
		g := graph.Complete(24)
		run := func(forceGeneric bool) (int, []int) {
			cfg := Config{RLNC: rlnc.Config{
				Field: gf.MustNew(q), K: 12, RankOnly: true, ForceGeneric: forceGeneric,
			}}
			p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(9, 1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SeedAll(RoundRobinAssign(12, g.N()), nil); err != nil {
				t.Fatal(err)
			}
			res, err := sim.New(g, core.Synchronous, p, core.SplitSeed(9, 2)).Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Rounds, p.DoneRounds()
		}
		slcRounds, slcDone := run(false)
		genRounds, genDone := run(true)
		if slcRounds != genRounds {
			t.Fatalf("q=%d: stopping time moved across backends (%d vs %d)", q, slcRounds, genRounds)
		}
		for v := range slcDone {
			if slcDone[v] != genDone[v] {
				t.Fatalf("q=%d: node %d completion round moved (%d vs %d)", q, v, slcDone[v], genDone[v])
			}
		}
	}
}

// BenchmarkProtocolSetupPayloadGF256 is a payload trial's setup at the
// shape algossip.Disseminate runs in the payload benchmark — n = 32,
// k = 128 messages of r = 4 KiB over GF(256), spread round-robin — up to
// round 1: the protocol built and every message seeded. "fresh" builds
// every decoder (New), whose first inserts allocate and zero its arenas;
// "reused" takes the last iteration's protocol over (Renew), whose reset
// decoders write their seeds into arenas they already hold.
func BenchmarkProtocolSetupPayloadGF256(b *testing.B) {
	const n, k, r = 32, 128, 4096
	g := graph.RandomRegular(n, 4, core.NewRand(1))
	cfg := Config{RLNC: rlnc.Config{Field: gf.MustNew(256), K: k, PayloadLen: r}}
	msgs := RandomMessages(cfg.RLNC, core.NewRand(2))
	assign := RoundRobinAssign(k, n)
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			var prev *Protocol
			b.SetBytes(k * r)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !reuse {
					prev = nil
				}
				p, err := Renew(prev, g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := p.SeedAll(assign, msgs); err != nil {
					b.Fatal(err)
				}
				prev = p
			}
		})
	}
}
