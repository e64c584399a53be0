package rlnc

import (
	"bytes"
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// TestBitGenericEquivalence locks the backend-selection determinism
// contract: a GF(2) payload-carrying node on the packed bitset backend
// and one on the generic backend (ForceGeneric) consume the random
// stream identically and emit the same packets, so swapping backends can
// never move a fixed-seed trajectory. k > 64 forces multi-word rows.
func TestBitGenericEquivalence(t *testing.T) {
	const k, r = 70, 16
	f := gf.MustNew(2)
	bitCfg := Config{Field: f, K: k, PayloadLen: r}
	genCfg := Config{Field: f, K: k, PayloadLen: r, ForceGeneric: true}

	seedRNG := core.NewRand(5)
	msgs := make([]Message, k)
	for i := range msgs {
		msgs[i] = Message{Index: i, Payload: gf.RandBytes(f, r, seedRNG)}
	}
	bitSrc, genSrc := MustNewNode(bitCfg), MustNewNode(genCfg)
	bitDst, genDst := MustNewNode(bitCfg), MustNewNode(genCfg)
	if !bitSrc.BitMode() || genSrc.BitMode() {
		t.Fatal("backend selection wrong")
	}
	for _, m := range msgs {
		bitSrc.Seed(m)
		genSrc.Seed(m)
	}

	// Drive both universes with independent but identically seeded RNGs;
	// every emitted packet and every helpfulness verdict must agree.
	bitRNG, genRNG := core.NewRand(77), core.NewRand(77)
	for step := 0; step < 400; step++ {
		bp := bitSrc.Emit(bitRNG)
		gp := genSrc.Emit(genRNG)
		if !bytes.Equal(elemsToBytes(bp.ExpandCoeffs(k)), elemsToBytes(gp.Coeffs)) {
			t.Fatalf("step %d: coefficient vectors differ across backends", step)
		}
		if !bytes.Equal(bp.Payload, gp.Payload) {
			t.Fatalf("step %d: payloads differ across backends", step)
		}
		if bitDst.WouldHelp(bp) != genDst.WouldHelp(gp) {
			t.Fatalf("step %d: WouldHelp disagrees", step)
		}
		if bitDst.Receive(bp) != genDst.Receive(gp) {
			t.Fatalf("step %d: Receive helpfulness disagrees", step)
		}
		if bitDst.Rank() != genDst.Rank() {
			t.Fatalf("step %d: ranks diverged (%d vs %d)", step, bitDst.Rank(), genDst.Rank())
		}
	}
	if !bitDst.CanDecode() {
		t.Fatal("bit destination did not converge")
	}
	bitMsgs, err := bitDst.Decode()
	if err != nil {
		t.Fatal(err)
	}
	genMsgs, err := genDst.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		if !bytes.Equal(bitMsgs[i].Payload, msgs[i].Payload) || !bytes.Equal(genMsgs[i].Payload, msgs[i].Payload) {
			t.Fatalf("decoded payload %d wrong", i)
		}
	}
}

func elemsToBytes(v []gf.Elem) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}

// TestAdaptRoundTrip covers the wire-format bridge both ways plus its
// malformed-input rejections.
func TestAdaptRoundTrip(t *testing.T) {
	f := gf.MustNew(2)
	bitNode := MustNewNode(Config{Field: f, K: 5, RankOnly: true})
	genNode := MustNewNode(Config{Field: f, K: 5, RankOnly: true, ForceGeneric: true})
	bitNode.Seed(Message{Index: 2})
	genNode.Seed(Message{Index: 2})

	wire := &Packet{Coeffs: []gf.Elem{1, 0, 1, 0, 0}}
	native := bitNode.Adapt(wire)
	if native == nil || native.Bits == nil {
		t.Fatal("Adapt failed to pack a generic packet for a bit node")
	}
	if !bitNode.Receive(native) {
		t.Fatal("adapted packet should be helpful")
	}
	back := genNode.Adapt(bitNode.Emit(core.NewRand(3)))
	if back == nil || back.Coeffs == nil {
		t.Fatal("Adapt failed to expand a bit packet for a generic node")
	}
	if bitNode.Adapt(&Packet{Coeffs: []gf.Elem{2, 0, 0, 0, 0}}) != nil {
		t.Fatal("non-GF(2) coefficients must not pack")
	}
	if bitNode.Adapt(&Packet{Coeffs: []gf.Elem{1}}) != nil {
		t.Fatal("wrong-width coefficients must not pack")
	}
	if bitNode.Adapt(nil) != nil {
		t.Fatal("nil packet must adapt to nil")
	}
}

// TestAllocsSteadyStateSendReceive pins the zero-allocation contract of
// the pooled hot path: once a receiver is at full rank (the steady state
// of every simulation's tail), an EmitInto → ReceiveOwned → WouldHelp
// cycle through a recycled packet performs zero allocations per packet,
// on every backend — the "auto" rows are whatever the rule picks on this
// host, byte rows on a vector tier — and on byte rows with payloads at
// k = 128 and k = 300, where an emit folds its factors through the
// transform rows in more than one stack block.
func TestAllocsSteadyStateSendReceive(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		sliced bool
	}{
		{"gf2-rankonly-bit", Config{Field: gf.MustNew(2), K: 96, RankOnly: true}, false},
		{"gf2-payload-bit", Config{Field: gf.MustNew(2), K: 96, PayloadLen: 256}, false},
		{"gf16-rankonly-sliced", Config{Field: gf.MustNew(16), K: 96, RankOnly: true}, true},
		{"gf256-rankonly-sliced", Config{Field: gf.MustNew(256), K: 96, RankOnly: true}, true},
		{"gf256-payload-sliced-planes", Config{Field: gf.MustNew(256), K: 96, PayloadLen: 256}, true},
		{"gf256-rankonly-generic", Config{Field: gf.MustNew(256), K: 96, RankOnly: true, ForceGeneric: true}, false},
		{"gf256-payload-generic", Config{Field: gf.MustNew(256), K: 96, PayloadLen: 256, ForceGeneric: true}, false},
		{"gf16-rankonly-auto", Config{Field: gf.MustNew(16), K: 96, RankOnly: true}, false},
		{"gf256-rankonly-auto", Config{Field: gf.MustNew(256), K: 96, RankOnly: true}, false},
		{"gf256-payload-auto", Config{Field: gf.MustNew(256), K: 96, PayloadLen: 256}, false},
		{"gf256-payload-generic-k128", Config{Field: gf.MustNew(256), K: 128, PayloadLen: 256, ForceGeneric: true}, false},
		{"gf256-payload-generic-k300", Config{Field: gf.MustNew(256), K: 300, PayloadLen: 256, ForceGeneric: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := core.NewRand(9)
			build := MustNewNode
			if tc.sliced {
				build = func(cfg Config) *Node { return slicedNode(t, cfg) }
			}
			src := build(tc.cfg)
			dst := build(tc.cfg)
			for i := 0; i < tc.cfg.K; i++ {
				msg := Message{Index: i}
				if !tc.cfg.RankOnly {
					msg.Payload = gf.RandBytes(tc.cfg.Field, tc.cfg.PayloadLen, rng)
				}
				src.Seed(msg)
			}
			pkt := &Packet{}
			for i := 0; i < 100*tc.cfg.K && !dst.CanDecode(); i++ {
				if src.EmitInto(rng, pkt) {
					dst.ReceiveOwned(pkt)
				}
			}
			if !dst.CanDecode() {
				t.Fatal("destination did not reach full rank")
			}
			// Warm the packet buffers once, then demand zero allocations.
			src.EmitInto(rng, pkt)
			allocs := testing.AllocsPerRun(200, func() {
				if !src.EmitInto(rng, pkt) {
					t.Fatal("emit failed")
				}
				if dst.WouldHelp(pkt) {
					t.Fatal("full-rank node cannot be helped")
				}
				if dst.ReceiveOwned(pkt) {
					t.Fatal("full-rank node cannot gain rank")
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state send/receive allocated %.1f allocs/packet, want 0", allocs)
			}
		})
	}
}

// TestAllocsSeed pins Seed at zero allocations on every backend, rank-only
// and with payloads: the unit row is built in node scratch and the
// payload copied straight into the arena, so a node reset (Node.Reset)
// and seeded again allocates nothing. AllocsPerRun's warm-up run sizes
// the arenas and the scratch.
func TestAllocsSeed(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		sliced bool
	}{
		{"gf2-rankonly-bit", Config{Field: gf.MustNew(2), K: 96, RankOnly: true}, false},
		{"gf2-payload-bit", Config{Field: gf.MustNew(2), K: 96, PayloadLen: 256}, false},
		{"gf256-rankonly-sliced", Config{Field: gf.MustNew(256), K: 96, RankOnly: true}, true},
		{"gf256-payload-sliced", Config{Field: gf.MustNew(256), K: 96, PayloadLen: 256}, true},
		{"gf256-rankonly-bytes", Config{Field: gf.MustNew(256), K: 96, RankOnly: true, ForceGeneric: true}, false},
		{"gf256-payload-bytes", Config{Field: gf.MustNew(256), K: 96, PayloadLen: 256, ForceGeneric: true}, false},
		{"gf7-payload-bytes", Config{Field: gf.MustNew(7), K: 96, PayloadLen: 256}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := MustNewNode(tc.cfg)
			if tc.sliced {
				n = slicedNode(t, tc.cfg)
			}
			msgs := make([]Message, tc.cfg.K)
			rng := core.NewRand(5)
			for i := range msgs {
				msgs[i].Index = i
				if !tc.cfg.RankOnly {
					msgs[i].Payload = gf.RandBytes(tc.cfg.Field, tc.cfg.PayloadLen, rng)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				n.Reset()
				for _, m := range msgs {
					n.Seed(m)
				}
			})
			if !n.CanDecode() {
				t.Fatal("k seeds did not reach full rank")
			}
			if allocs != 0 {
				t.Fatalf("reset and %d seeds allocated %.1f times, want 0", tc.cfg.K, allocs)
			}
		})
	}
}

// TestAllocsRampUp bounds the ramp-up cost too: filling a fresh node to
// full rank through the pooled path stays within a small constant number
// of allocations per helpful packet (arena chunks plus bookkeeping),
// rather than the 3-per-packet of the historical copy-everything path.
func TestAllocsRampUp(t *testing.T) {
	cfg := Config{Field: gf.MustNew(2), K: 128, RankOnly: true}
	rng := core.NewRand(11)
	src := MustNewNode(cfg)
	for i := 0; i < cfg.K; i++ {
		src.Seed(Message{Index: i})
	}
	pkt := &Packet{}
	src.EmitInto(rng, pkt)
	allocs := testing.AllocsPerRun(20, func() {
		dst := MustNewNode(cfg)
		for !dst.CanDecode() {
			if src.EmitInto(rng, pkt) {
				dst.ReceiveOwned(pkt)
			}
		}
	})
	perHelpful := allocs / float64(cfg.K)
	if perHelpful > 1.0 {
		t.Fatalf("ramp-up cost %.2f allocs per helpful packet (total %.0f), want <= 1", perHelpful, allocs)
	}
}

func BenchmarkSteadyStateSendReceive(b *testing.B) {
	for _, q := range []int{2, 256} {
		b.Run(fmt.Sprintf("gf=%d/k=128", q), func(b *testing.B) {
			cfg := Config{Field: gf.MustNew(q), K: 128, RankOnly: true}
			rng := core.NewRand(13)
			src := MustNewNode(cfg)
			dst := MustNewNode(cfg)
			for i := 0; i < cfg.K; i++ {
				src.Seed(Message{Index: i})
			}
			pkt := &Packet{}
			for !dst.CanDecode() {
				if src.EmitInto(rng, pkt) {
					dst.ReceiveOwned(pkt)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.EmitInto(rng, pkt)
				dst.ReceiveOwned(pkt)
			}
		})
	}
}
