package rlnc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// buildSliced runs build with the kernel tier pinned to portable — the
// side of the backend rule on which a GF(2^m) node is bit-sliced — and
// restores the tier after, so the nodes build constructs are sliced yet
// run against the host's best plane kernels (and the CI legs' forced
// tiers). The layout is chosen at construction; nothing else needs the
// pin.
func buildSliced(t testing.TB, build func()) {
	t.Helper()
	prev := gf.ActiveTier()
	if err := gf.SetTier(gf.TierPortable); err != nil {
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
		t.Fatalf("%s node built on the portable tier is not sliced", cfg.Field.Name())
	}
	return n
}

// TestBackendRule is the selection rule itself, (field, tier) → backend:
// order 2 is always packed bits, a binary extension field is byte rows
// on the vector tiers and bit-sliced on the pure-Go ones, a prime field
// is always byte rows, and ForceGeneric overrides all of it.
func TestBackendRule(t *testing.T) {
	tiers := []gf.Tier{gf.TierScalar, gf.TierPortable, gf.TierAVX2, gf.TierGFNI}
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
				t.Errorf("GF(%d) on %s: backend %s, want %s", q, tier, got, want)
			}
			forced := cfg
			forced.ForceGeneric = true
			if got := forced.backend(tier); got != backendGeneric {
				t.Errorf("GF(%d) on %s with ForceGeneric: backend %s", q, tier, got)
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

// layoutTrace is everything a seeded source/sink run shows the outside:
// each emitted packet in wire form, each receive verdict, the decode —
// plus, to prove the hook took, the first packet's payload row as stored.
type layoutTrace struct {
	firstRow []uint64
	coeffs   [][]gf.Elem
	payloads [][]byte
	helpful  []bool
	decoded  []Message
}

// traceLayoutRun builds a source/sink pair of generation size g under the
// given payload layout (g == k is the whole-k Node, anything smaller a
// GenNode) and drives it to a decode from fixed seeds. Receives alternate
// between the copying and the owned path.
func traceLayoutRun(t *testing.T, bytesLayout bool, f gf.Field, k, g, r int) layoutTrace {
	t.Helper()
	defer gf.ForcePayloadLayout(bytesLayout)()
	seedRNG, rng := core.NewRand(5), core.NewRand(77)
	msgs := make([]Message, k)
	for i := range msgs {
		msgs[i] = Message{Index: i, Payload: gf.RandBytes(f, r, seedRNG)}
	}
	var tr layoutTrace
	record := func(step int, p *Packet, kk int, receive func(owned bool) bool) {
		if step == 0 {
			tr.firstRow = p.SlicedPay.Clone()
		}
		tr.coeffs = append(tr.coeffs, p.ExpandCoeffs(kk))
		tr.payloads = append(tr.payloads, p.ExpandPayload(r))
		tr.helpful = append(tr.helpful, receive(step%2 == 1))
	}
	inner := Config{Field: f, K: k, PayloadLen: r}
	if g == k {
		src, dst := slicedNode(t, inner), slicedNode(t, inner)
		for _, m := range msgs {
			src.Seed(m)
		}
		for step := 0; !dst.CanDecode(); step++ {
			if step > 50*k {
				t.Fatal("sink never reached full rank")
			}
			p := src.Emit(rng)
			record(step, p, k, func(owned bool) bool {
				if owned {
					return dst.ReceiveOwned(p)
				}
				return dst.Receive(p)
			})
		}
		var err error
		if tr.decoded, err = dst.Decode(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := GenConfig{Inner: inner, K: k, GenSize: g}
	var src, dst *GenNode
	var err error
	buildSliced(t, func() {
		if src, err = NewGenNode(cfg); err != nil {
			t.Fatal(err)
		}
		dst, _ = NewGenNode(cfg)
	})
	for _, m := range msgs {
		src.Seed(m)
	}
	for step := 0; !dst.CanDecode(); step++ {
		if step > 50*k {
			t.Fatal("sink never reached full rank")
		}
		p := src.Emit(rng)
		record(step, p.Packet, cfg.GenK(p.Gen), func(owned bool) bool {
			if owned {
				return dst.ReceiveOwned(p)
			}
			return dst.Receive(p)
		})
	}
	if tr.decoded, err = dst.Decode(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPayloadLayoutEquivalence: the payload layout is invisible. The same
// seeded source/sink pair built once per layout emits the same wire
// packets, reaches the same receive verdicts and decodes the same (and
// the original) messages, for GF(256) — where the layouts differ — and
// GF(16) — where the byte layout does not apply and the hook must change
// nothing — at payload widths around the 64-symbol block and at the
// benchmark's 4 KiB, on whole-k nodes and generation-coded ones.
func TestPayloadLayoutEquivalence(t *testing.T) {
	const k = 40
	for _, q := range []int{256, 16} {
		for _, r := range []int{1, 63, 64, 65, 4096} {
			for _, g := range []int{k, 16} {
				t.Run(fmt.Sprintf("gf=%d/r=%d/g=%d", q, r, g), func(t *testing.T) {
					f := gf.MustNew(q)
					planes := traceLayoutRun(t, false, f, k, g, r)
					byts := traceLayoutRun(t, true, f, k, g, r)
					// The stored rows differ exactly where a byte layout exists
					// (one symbol can encode alike both ways; 63 cannot).
					if r > 1 && slices.Equal(planes.firstRow, byts.firstRow) != (q != 256) {
						t.Fatalf("stored payload rows equal across layouts, want equal = %v", q != 256)
					}
					if len(planes.helpful) != len(byts.helpful) {
						t.Fatalf("runs differ in length: %d packets vs %d", len(planes.helpful), len(byts.helpful))
					}
					for i := range planes.helpful {
						if !bytes.Equal(elemsToBytes(planes.coeffs[i]), elemsToBytes(byts.coeffs[i])) {
							t.Fatalf("packet %d: coefficients differ across layouts", i)
						}
						if !bytes.Equal(planes.payloads[i], byts.payloads[i]) {
							t.Fatalf("packet %d: payloads differ across layouts", i)
						}
						if planes.helpful[i] != byts.helpful[i] {
							t.Fatalf("packet %d: receive verdicts differ across layouts", i)
						}
					}
					seedRNG := core.NewRand(5)
					for i := 0; i < k; i++ {
						want := gf.RandBytes(f, r, seedRNG)
						if !bytes.Equal(planes.decoded[i].Payload, want) || !bytes.Equal(byts.decoded[i].Payload, want) {
							t.Fatalf("message %d decoded wrong", i)
						}
					}
				})
			}
		}
	}
}
