package rlnc

import (
	"bytes"
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// buildSliced runs build with the kernel tier pinned to scalar — the
// side of the backend rule on which a GF(2^m) node is bit-sliced — and
// restores the tier after, so the nodes build constructs are sliced on
// any host (and under the CI legs' forced tiers). The layout is chosen
// at construction; nothing else needs the pin.
func buildSliced(t testing.TB, build func()) {
	t.Helper()
	prev := gf.ActiveTier()
	if err := gf.SetTier(gf.TierScalar); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := gf.SetTier(prev); err != nil {
			t.Fatal(err)
		}
	}()
	build()
}

// slicedNode is MustNewNode on the sliced side of the backend rule.
func slicedNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	var n *Node
	buildSliced(t, func() { n = MustNewNode(cfg) })
	if !n.SlicedMode() {
		t.Fatalf("%s node built on the scalar tier is not sliced", cfg.Field.Name())
	}
	return n
}

// TestBackendRule is the selection rule itself, (field, tier) → backend:
// order 2 is always packed bits, a binary extension field is byte rows
// on the vector tiers and bit-sliced on the pure-Go one, a prime field
// is always byte rows, and ForceGeneric overrides all of it.
func TestBackendRule(t *testing.T) {
	tiers := []gf.Tier{gf.TierScalar, gf.TierAVX2, gf.TierGFNI, gf.TierGFNI512}
	for _, q := range []int{2, 3, 4, 16, 256} {
		cfg := Config{Field: gf.MustNew(q), K: 4, RankOnly: true}
		for _, tier := range tiers {
			want := backendGeneric
			switch {
			case q == 2:
				want = backendBit
			case q != 3 && tier < gf.TierAVX2:
				want = backendSliced
			}
			if got := cfg.backend(tier); got != want {
				t.Errorf("GF(%d) on %s: backend %d, want %d", q, tier, got, want)
			}
			forced := cfg
			forced.ForceGeneric = true
			if got := forced.backend(tier); got != backendGeneric {
				t.Errorf("GF(%d) on %s with ForceGeneric: backend %d", q, tier, got)
			}
		}
	}
	// NewNode applies the rule at the tier active at construction, and the
	// layout then survives a tier change.
	cfg := Config{Field: gf.MustNew(16), K: 4, RankOnly: true}
	slicedNode(t, cfg)
	if got, want := MustNewNode(cfg).SlicedMode(), gf.ActiveTier() < gf.TierAVX2; got != want {
		t.Errorf("GF(16) node on %s: sliced = %v, want %v", gf.ActiveTier(), got, want)
	}
}

// TestSlicedGenericEquivalence locks the backend-selection determinism
// contract for the bit-sliced backend: a GF(2^m) payload-carrying node on
// the sliced backend and one on the generic backend (ForceGeneric)
// consume the random stream identically and emit the same packets, so
// swapping backends can never move a fixed-seed trajectory — the
// TestBitGenericEquivalence analogue for m ∈ {2, 4, 8}. k > 64 forces
// multi-word planes.
func TestSlicedGenericEquivalence(t *testing.T) {
	for _, q := range []int{4, 16, 256} {
		t.Run(fmt.Sprintf("gf=%d", q), func(t *testing.T) {
			const k, r = 70, 16
			f := gf.MustNew(q)
			slcCfg := Config{Field: f, K: k, PayloadLen: r}
			genCfg := Config{Field: f, K: k, PayloadLen: r, ForceGeneric: true}

			seedRNG := core.NewRand(5)
			msgs := make([]Message, k)
			for i := range msgs {
				msgs[i] = Message{Index: i, Payload: gf.RandBytes(f, r, seedRNG)}
			}
			slcSrc, genSrc := slicedNode(t, slcCfg), MustNewNode(genCfg)
			slcDst, genDst := slicedNode(t, slcCfg), MustNewNode(genCfg)
			if genSrc.SlicedMode() || slcSrc.BitMode() {
				t.Fatal("backend selection wrong")
			}
			for _, m := range msgs {
				slcSrc.Seed(m)
				genSrc.Seed(m)
			}

			// Drive both universes with independent but identically seeded
			// RNGs; every emitted packet and helpfulness verdict must agree.
			slcRNG, genRNG := core.NewRand(77), core.NewRand(77)
			for step := 0; step < 400; step++ {
				sp := slcSrc.Emit(slcRNG)
				gp := genSrc.Emit(genRNG)
				if !bytes.Equal(elemsToBytes(sp.ExpandCoeffs(k)), elemsToBytes(gp.Coeffs)) {
					t.Fatalf("step %d: coefficient vectors differ across backends", step)
				}
				if !bytes.Equal(sp.ExpandPayload(r), gp.Payload) {
					t.Fatalf("step %d: payloads differ across backends", step)
				}
				if slcDst.WouldHelp(sp) != genDst.WouldHelp(gp) {
					t.Fatalf("step %d: WouldHelp disagrees", step)
				}
				if slcDst.Receive(sp) != genDst.Receive(gp) {
					t.Fatalf("step %d: Receive helpfulness disagrees", step)
				}
				if slcDst.Rank() != genDst.Rank() {
					t.Fatalf("step %d: ranks diverged (%d vs %d)", step, slcDst.Rank(), genDst.Rank())
				}
			}
			if !slcDst.CanDecode() {
				t.Fatal("sliced destination did not converge")
			}
			slcMsgs, err := slcDst.Decode()
			if err != nil {
				t.Fatal(err)
			}
			genMsgs, err := genDst.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range msgs {
				if !bytes.Equal(slcMsgs[i].Payload, msgs[i].Payload) || !bytes.Equal(genMsgs[i].Payload, msgs[i].Payload) {
					t.Fatalf("decoded payload %d wrong", i)
				}
			}
		})
	}
}

// TestSlicedAdaptRoundTrip covers the wire-format bridge both ways for
// the sliced backend plus its malformed-input rejections.
func TestSlicedAdaptRoundTrip(t *testing.T) {
	f := gf.MustNew(16)
	slcNode := slicedNode(t, Config{Field: f, K: 5, PayloadLen: 3})
	genNode := MustNewNode(Config{Field: f, K: 5, PayloadLen: 3, ForceGeneric: true})
	seed := Message{Index: 2, Payload: []byte{1, 2, 3}}
	slcNode.Seed(seed)
	genNode.Seed(seed)

	wire := &Packet{Coeffs: []gf.Elem{1, 0, 7, 0, 0}, Payload: []byte{9, 8, 7}}
	native := slcNode.Adapt(wire)
	if native == nil || native.Sliced == nil || native.SlicedPay == nil {
		t.Fatal("Adapt failed to slice a generic packet for a sliced node")
	}
	// The pack/expand pair is lossless for valid symbols.
	if !bytes.Equal(elemsToBytes(native.ExpandCoeffs(5)), elemsToBytes(wire.Coeffs)) {
		t.Fatal("sliced pack/expand round trip lost coefficients")
	}
	if !bytes.Equal(native.ExpandPayload(3), wire.Payload) {
		t.Fatal("sliced pack/expand round trip lost payload")
	}
	if !slcNode.Receive(native) {
		t.Fatal("adapted packet should be helpful")
	}
	back := genNode.Adapt(slcNode.Emit(core.NewRand(3)))
	if back == nil || back.Coeffs == nil || back.Payload == nil {
		t.Fatal("Adapt failed to expand a sliced packet for a generic node")
	}
	if slcNode.Adapt(&Packet{Coeffs: []gf.Elem{1}}) != nil {
		t.Fatal("wrong-width coefficients must not slice")
	}
	if slcNode.Adapt(&Packet{Coeffs: []gf.Elem{1, 0, 0, 0, 0}, Payload: []byte{1}}) != nil {
		t.Fatal("wrong-width payload must not slice")
	}
	if slcNode.Adapt(nil) != nil {
		t.Fatal("nil packet must adapt to nil")
	}
	// A byte that is no field symbol is malformed, in either half, as on
	// every backend (TestReceiveMalformedSymbols) — never masked to m bits.
	if slcNode.Adapt(&Packet{Coeffs: []gf.Elem{16, 0, 0, 0, 0}, Payload: []byte{0, 0, 0}}) != nil {
		t.Fatal("out-of-field coefficient must not slice")
	}
	if slcNode.Adapt(&Packet{Coeffs: []gf.Elem{1, 0, 0, 0, 0}, Payload: []byte{0, 0x1F, 0}}) != nil {
		t.Fatal("out-of-field payload symbol must not slice")
	}
}

// TestAdaptSlicedToRankOnlyGeneric: a payload-carrying sliced packet
// adapted for a rank-only generic peer must expand cleanly with its
// payload dropped (regression: ExpandPayload(0) used to divide by zero).
func TestAdaptSlicedToRankOnlyGeneric(t *testing.T) {
	f := gf.MustNew(256)
	src := slicedNode(t, Config{Field: f, K: 4, PayloadLen: 3})
	for i := 0; i < 4; i++ {
		src.Seed(Message{Index: i, Payload: []byte{byte(i), 1, 2}})
	}
	pkt := src.Emit(core.NewRand(7))
	if pkt.SlicedPay == nil {
		t.Fatal("sliced emit must carry a sliced payload")
	}
	if got := pkt.ExpandPayload(0); got != nil {
		t.Fatalf("ExpandPayload(0) = %v, want nil", got)
	}
	rankOnly := MustNewNode(Config{Field: f, K: 4, RankOnly: true, ForceGeneric: true})
	adapted := rankOnly.Adapt(pkt)
	if adapted == nil || len(adapted.Coeffs) != 4 {
		t.Fatal("cross-backend adapt failed")
	}
	if !rankOnly.Receive(adapted) {
		t.Fatal("adapted packet should be helpful to an empty node")
	}
}
