package rlnc

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"algossip/internal/core"
	"algossip/internal/core/coretest"
	"algossip/internal/gf"
)

func genCfg(k, genSize int) GenConfig {
	return GenConfig{
		Inner:   Config{Field: gf.MustNew(256), PayloadLen: 4},
		K:       k,
		GenSize: genSize,
	}
}

func TestGenConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{Inner: Config{Field: gf.MustNew(2)}, K: 0, GenSize: 1},
		{Inner: Config{Field: gf.MustNew(2)}, K: 4, GenSize: 0},
		{Inner: Config{Field: gf.MustNew(2)}, K: 4, GenSize: 5},
	}
	for _, cfg := range bad {
		if _, err := NewGenNode(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenerationsAndBounds(t *testing.T) {
	cfg := genCfg(10, 4)
	if cfg.Generations() != 3 {
		t.Fatalf("Generations = %d, want 3", cfg.Generations())
	}
	lo, hi := cfg.genBounds(2)
	if lo != 8 || hi != 10 {
		t.Fatalf("last generation bounds = [%d,%d), want [8,10)", lo, hi)
	}
}

// TestGenRoundTrip: a source with all messages coded in generations feeds a
// sink until it decodes all k with correct global indices and payloads.
func TestGenRoundTrip(t *testing.T) {
	for _, genSize := range []int{1, 3, 5, 10} {
		cfg := genCfg(10, genSize)
		rng := core.NewRand(uint64(genSize))
		src, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		msgs := make([]Message, cfg.K)
		for i := range msgs {
			msgs[i] = Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, 4, rng)}
			src.Seed(msgs[i])
		}
		if !src.CanDecode() {
			t.Fatal("source must be full rank")
		}
		dst, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !dst.CanDecode() {
			steps++
			if steps > 20000 {
				t.Fatalf("genSize=%d: no convergence", genSize)
			}
			dst.Receive(src.Emit(rng))
		}
		got, err := dst.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cfg.K {
			t.Fatalf("decoded %d messages", len(got))
		}
		for i, m := range got {
			if m.Index != i {
				t.Fatalf("message %d has index %d", i, m.Index)
			}
			for j := range m.Payload {
				if m.Payload[j] != msgs[i].Payload[j] {
					t.Fatalf("genSize=%d: payload mismatch at (%d,%d)", genSize, i, j)
				}
			}
		}
	}
}

// TestGenerationFullDecodeEquivalence: for every supported field, the
// payload decoded through generation-based coding is identical to the
// payload decoded through full-span coding — generations change packet
// layout and decode cost, never the recovered data.
func TestGenerationFullDecodeEquivalence(t *testing.T) {
	const k, r = 12, 4
	for _, field := range gf.Fields() {
		t.Run(fmt.Sprintf("q%d", field.Order()), func(t *testing.T) {
			rng := core.NewRand(uint64(field.Order()))
			msgs := make([]Message, k)
			for i := range msgs {
				msgs[i] = Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
			}
			decode := func(genSize int) []Message {
				cfg := GenConfig{Inner: Config{Field: field, PayloadLen: r}, K: k, GenSize: genSize}
				src, err := NewGenNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range msgs {
					src.Seed(m)
				}
				dst, err := NewGenNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for guard := 0; !dst.CanDecode(); guard++ {
					if guard > 100000 {
						t.Fatalf("genSize=%d: no convergence", genSize)
					}
					dst.Receive(src.Emit(rng))
				}
				got, err := dst.Decode()
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			gen := decode(5) // generations of size 5, 5, 2
			full := decode(k)
			for i := 0; i < k; i++ {
				if gen[i].Index != i || full[i].Index != i {
					t.Fatalf("message %d decoded with index %d/%d", i, gen[i].Index, full[i].Index)
				}
				for j := 0; j < r; j++ {
					if gen[i].Payload[j] != msgs[i].Payload[j] {
						t.Fatalf("generation decode corrupted message %d symbol %d", i, j)
					}
					if full[i].Payload[j] != msgs[i].Payload[j] {
						t.Fatalf("full decode corrupted message %d symbol %d", i, j)
					}
				}
			}
		})
	}
}

func TestGenEmitEmpty(t *testing.T) {
	n, err := NewGenNode(genCfg(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n.Emit(core.NewRand(1)) != nil {
		t.Fatal("empty node must emit nil")
	}
	if n.Receive(nil) {
		t.Fatal("nil packet must not help")
	}
}

func TestGenMessageBitsShrink(t *testing.T) {
	full := genCfg(64, 64).MessageBits()
	small := genCfg(64, 8).MessageBits()
	if small >= full {
		t.Fatalf("generation size 8 packet (%d bits) not smaller than full (%d bits)", small, full)
	}
}

func TestGenDecodeBeforeReady(t *testing.T) {
	n, err := NewGenNode(genCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	n.Seed(Message{Index: 0, Payload: make([]byte, 4)})
	if _, err := n.Decode(); err == nil {
		t.Fatal("decode before full rank must fail")
	}
}

// TestGenCouponCollectorEffect: with single-message generations (GenSize=1,
// i.e. uncoded-per-slot), the transfer takes more emissions than full
// coding because the random generation choice repeats finished generations.
func TestGenCouponCollectorEffect(t *testing.T) {
	transfers := func(genSize int) int {
		cfg := genCfg(24, genSize)
		total := 0
		for seed := uint64(0); seed < 5; seed++ {
			rng := core.NewRand(seed)
			src, _ := NewGenNode(cfg)
			for i := 0; i < cfg.K; i++ {
				src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, 4, rng)})
			}
			dst, _ := NewGenNode(cfg)
			for !dst.CanDecode() {
				total++
				dst.Receive(src.Emit(rng))
			}
		}
		return total
	}
	single := transfers(1)
	full := transfers(24)
	if single <= full {
		t.Errorf("GenSize=1 (%d transfers) should pay a coupon-collector premium vs full coding (%d)",
			single, full)
	}
}

// TestOneGenerationStreamParity pins the rule that makes classic coding
// the one-generation case: a GenNode with GenSize == K and a plain Node
// fed the same seeds consume protocol randomness identically, so two
// equally seeded generators stay in lockstep through any interleaving of
// EmitInto, SkipEmit and ReceiveOwned, on every backend.
func TestOneGenerationStreamParity(t *testing.T) {
	const k, r = 9, 3
	for _, inner := range []Config{
		{Field: gf.MustNew(2), RankOnly: true},
		{Field: gf.MustNew(251), PayloadLen: r},
		{Field: gf.MustNew(256), PayloadLen: r},
	} {
		t.Run(inner.Field.Name(), func(t *testing.T) {
			inner.K = k
			mk := func() (*GenNode, *Node) {
				gn, err := NewGenNode(GenConfig{Inner: inner, K: k, GenSize: k})
				if err != nil {
					t.Fatal(err)
				}
				return gn, MustNewNode(inner)
			}
			srcG, srcN := mk()
			dstG, dstN := mk()
			seedRng := core.NewRand(5)
			for i := 0; i < k; i++ {
				msg := Message{Index: i}
				if !inner.RankOnly {
					msg.Payload = gf.RandBytes(inner.Field, r, seedRng)
				}
				srcG.Seed(msg)
				srcN.Seed(msg)
			}
			rngG, rngN := core.NewRand(77), core.NewRand(77)
			gp, np := &GenPacket{}, &Packet{}
			for step := 0; step < 4*k; step++ {
				if step%3 == 2 {
					if srcG.SkipEmit(rngG) != srcN.SkipEmit(rngN) {
						t.Fatalf("step %d: SkipEmit verdicts differ", step)
					}
				} else {
					if srcG.EmitInto(rngG, gp) != srcN.EmitInto(rngN, np) {
						t.Fatalf("step %d: EmitInto verdicts differ", step)
					}
					if gp.Gen != 0 {
						t.Fatalf("step %d: one-generation packet tagged %d", step, gp.Gen)
					}
					if dstG.ReceiveOwned(gp) != dstN.ReceiveOwned(np) {
						t.Fatalf("step %d: helpfulness differs", step)
					}
				}
				if a, b := rngG.Uint64(), rngN.Uint64(); a != b {
					t.Fatalf("step %d: random streams diverged (%#x vs %#x)", step, a, b)
				}
				if dstG.Rank() != dstN.Rank() {
					t.Fatalf("step %d: ranks %d vs %d", step, dstG.Rank(), dstN.Rank())
				}
			}
			if !dstG.CanDecode() {
				t.Fatalf("sink stuck at rank %d/%d", dstG.Rank(), k)
			}
		})
	}
}

// TestGenSkipEmitMatchesEmit: on a multi-generation node SkipEmit advances
// the random stream exactly as EmitInto does (generation pick included),
// whatever mix of empty and non-empty generations the node holds, and
// whichever way the stream is drawn.
func TestGenSkipEmitMatchesEmit(t *testing.T) {
	cfg := genCfg(10, 4)
	n, err := NewGenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rngE, rngS := core.NewRand(3), core.NewRand(3)
	if n.SkipEmit(rngS) || n.EmitInto(rngE, &GenPacket{}) {
		t.Fatal("empty node emitted")
	}
	seedRng := core.NewRand(4)
	for _, idx := range []int{9, 0, 1, 5} { // generations 2, 0, 0, 1
		n.Seed(Message{Index: idx, Payload: gf.RandBytes(cfg.Inner.Field, 4, seedRng)})
		for i := 0; i < 8; i++ {
			if !n.EmitInto(rngE, &GenPacket{}) || !n.SkipEmit(rngS) {
				t.Fatal("non-empty node refused to emit")
			}
			if a, b := rngE.Uint64(), rngS.Uint64(); a != b {
				t.Fatalf("after seeding %d: streams diverged (%#x vs %#x)", idx, a, b)
			}
		}
	}

	// Both sides of core.Generator's selection. On a core.NewRand stream a
	// skip over GF(2^m) is one jump of the generator and the emit draws
	// through it inlined; on any other source both draw one value at a
	// time. Either way the skip must leave the stream where the emit does
	// and where the other side's skip does. Two generations of k columns,
	// one full and one half full, so the pick and both ranks are drawn; k
	// covers the one-, two- and four-word GF(2) emits (16, 128, 200) and
	// the general one (160, 300), and at 300 a skip longer than the
	// generator's table.
	// The prime field keeps drawing on both sides (its IntN rejects).
	for _, q := range []int{2, 256, 251} {
		for _, k := range []int{16, 128, 160, 200, 300} {
			t.Run(fmt.Sprintf("gf=%d/k=%d", q, k), func(t *testing.T) {
				n, err := NewGenNode(GenConfig{Inner: Config{Field: gf.MustNew(q), RankOnly: true}, K: 2 * k, GenSize: k})
				if err != nil {
					t.Fatal(err)
				}
				for idx := 0; idx < k+k/2; idx++ {
					n.Seed(Message{Index: idx})
				}
				for seed := uint64(0); seed < 16; seed++ {
					rngE := core.NewRand(seed)
					if !n.EmitInto(rngE, &GenPacket{}) {
						t.Fatal("non-empty node refused to emit")
					}
					after := rngE.Uint64()
					coretest.BothSides(t, seed, func(r *rand.Rand) any {
						if !n.SkipEmit(r) || r.Uint64() != after {
							t.Fatalf("seed %d: SkipEmit did not leave the stream where EmitInto does", seed)
						}
						return nil
					})
					coretest.BothSides(t, seed, func(r *rand.Rand) any {
						p := &GenPacket{}
						if !n.EmitInto(r, p) || r.Uint64() != after {
							t.Fatalf("seed %d: EmitInto did not leave the stream where it did before", seed)
						}
						return p
					})
				}
			})
		}
	}
}

// TestSplitEmitMatchesEmitInto: DrawInto followed by Fill —
// with other emits of the same node in between, as a round stages them —
// produces EmitInto's packet from the same draws and leaves the generator
// where EmitInto does, on both sides of core.Generator's selection. Two
// generations of a payload-carrying node, one full and one half full, so
// the pick, both ranks and an emit that builds its packet whole (the
// nil-buffer emit in the middle) are all in play; whichever backend the
// active tier selects for the field is the one compared.
func TestSplitEmitMatchesEmitInto(t *testing.T) {
	const k, r = 8, 100
	for _, q := range []int{4, 256, 251} {
		t.Run(fmt.Sprintf("gf=%d", q), func(t *testing.T) {
			f := gf.MustNew(q)
			n, err := NewGenNode(GenConfig{Inner: Config{Field: f, PayloadLen: r}, K: 2 * k, GenSize: k})
			if err != nil {
				t.Fatal(err)
			}
			rng := core.NewRand(uint64(q))
			for idx := 0; idx < k+k/2; idx++ {
				n.Seed(Message{Index: idx, Payload: gf.RandBytes(f, r, rng)})
			}
			wire := func(p *GenPacket) any {
				return []any{p.Gen, p.Packet.ExpandCoeffs(k), p.Packet.ExpandPayload(r)}
			}
			whole := func(rg *rand.Rand) any {
				a, b := &GenPacket{}, &GenPacket{}
				if !n.EmitInto(rg, a) || !n.EmitInto(rg, b) {
					t.Fatal("non-empty node refused to emit")
				}
				return []any{wire(a), wire(b), rg.Uint64()}
			}
			split := func(rg *rand.Rand) any {
				a, b := &GenPacket{}, &GenPacket{}
				// The factors live in the caller's buffers, one per packet,
				// as a round's slab keeps them.
				fa, okA := n.DrawInto(rg, a, make([]gf.Elem, k))
				fb, okB := n.DrawInto(rg, b, make([]gf.Elem, k))
				if !okA || !okB {
					t.Fatal("non-empty node refused to emit")
				}
				next := rg.Uint64() // every draw belongs to the first half
				n.EmitInto(core.NewRand(99), &GenPacket{})
				n.Fill(b, fb)
				n.Fill(a, fa)
				return []any{wire(a), wire(b), next}
			}
			for seed := uint64(0); seed < 8; seed++ {
				coretest.BothSides(t, seed, whole)
				coretest.BothSides(t, seed, split)
				if a, b := whole(core.NewRand(seed)), split(core.NewRand(seed)); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: EmitInto %v\nsplit emit %v", seed, a, b)
				}
			}
		})
	}
}

// TestFillPayloadAfterReceivePanics pins the invariant a deferred fill
// rests on: the factors name the sender's stored rows, so a packet stored
// between DrawInto and Fill must make the fill panic instead of combining
// the wrong rows. Byte rows are forced: the packed backends defer
// nothing.
func TestFillPayloadAfterReceivePanics(t *testing.T) {
	cfg := genericCfg(256, 4, 80)
	cfg.ForceGeneric = true
	n, src := MustNewNode(cfg), MustNewNode(cfg)
	rng := core.NewRand(5)
	for i := 0; i < cfg.K; i++ {
		src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Field, cfg.PayloadLen, rng)})
	}
	n.Seed(Message{Index: 0, Payload: make([]byte, cfg.PayloadLen)})
	p := &Packet{}
	facs, ok := n.DrawInto(rng, p, make([]gf.Elem, cfg.K))
	if !ok || len(facs) != 1 {
		t.Fatalf("DrawInto = %v, %v; want one factor", facs, ok)
	}
	for !n.Receive(src.Emit(rng)) {
	}
	assertPanics(t, func() { n.Fill(p, facs) })
}

// TestGenNodeResetMatchesFresh: a generation-coded node that decoded one
// stream, reset, takes another exactly as a new node does — every
// verdict, rank, emit and the decode — on the packed, bit-sliced and
// byte-row backends, with one generation and with several.
func TestGenNodeResetMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inner  Config
		sliced bool
	}{
		{"bit", Config{Field: gf.MustNew(2), PayloadLen: 40}, false},
		{"sliced", Config{Field: gf.MustNew(256), PayloadLen: 40}, true},
		{"bytes", Config{Field: gf.MustNew(256), PayloadLen: 40, ForceGeneric: true}, false},
		{"bytes-rank-only", Config{Field: gf.MustNew(16), RankOnly: true, ForceGeneric: true}, false},
	} {
		for _, genSize := range []int{12, 5} {
			t.Run(fmt.Sprintf("%s/g=%d", tc.name, genSize), func(t *testing.T) {
				cfg := GenConfig{Inner: tc.inner, K: 12, GenSize: genSize}
				build := func() *GenNode {
					var n *GenNode
					var err error
					if tc.sliced {
						buildSliced(t, func() { n, err = NewGenNode(cfg) })
					} else {
						n, err = NewGenNode(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
				// stream feeds dst from a full source drawn from seed,
				// emitting from dst after every packet, and records it all.
				stream := func(dst *GenNode, seed uint64) []any {
					rng := core.NewRand(seed)
					src := build()
					for i := 0; i < cfg.K; i++ {
						msg := Message{Index: i}
						if !tc.inner.RankOnly {
							msg.Payload = gf.RandBytes(tc.inner.Field, tc.inner.PayloadLen, rng)
						}
						src.Seed(msg)
						if i%4 == 0 {
							dst.Seed(msg)
						}
					}
					var out []any
					echo := &GenPacket{}
					for i := 0; !dst.CanDecode(); i++ {
						if i > 100*cfg.K {
							t.Fatal("no convergence")
						}
						out = append(out, dst.ReceiveOwned(src.Emit(rng)), dst.Rank())
						if dst.EmitInto(rng, echo) {
							out = append(out, echo.Gen, echo.Packet.ExpandCoeffs(cfg.GenK(echo.Gen)),
								echo.Packet.ExpandPayload(tc.inner.PayloadLen))
						}
					}
					if !tc.inner.RankOnly {
						msgs, err := dst.Decode()
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, msgs)
					}
					return out
				}
				reused := build()
				stream(reused, 1)
				// The backend rule reads the tier: ask under the one built on.
				fits := func(c GenConfig) (ok bool) {
					if tc.sliced {
						buildSliced(t, func() { ok = reused.Fits(c) })
						return ok
					}
					return reused.Fits(c)
				}
				if !fits(cfg) {
					t.Fatal("a node does not fit its own configuration")
				}
				reused.Reset()
				if reused.Rank() != 0 || reused.EmitInto(core.NewRand(1), &GenPacket{}) {
					t.Fatal("a reset node still holds rows")
				}
				if got, want := stream(reused, 2), stream(build(), 2); !reflect.DeepEqual(got, want) {
					t.Fatal("a reset node took a stream differently from a new one")
				}
				for _, other := range []GenConfig{
					{Inner: tc.inner, K: 13, GenSize: genSize},
					{Inner: tc.inner, K: 12, GenSize: genSize - 1},
					{Inner: Config{Field: gf.MustNew(4), PayloadLen: 40}, K: 12, GenSize: genSize},
					{Inner: Config{Field: tc.inner.Field, PayloadLen: 41, ForceGeneric: tc.inner.ForceGeneric}, K: 12, GenSize: genSize},
					{Inner: Config{Field: tc.inner.Field, RankOnly: !tc.inner.RankOnly, PayloadLen: 40, ForceGeneric: tc.inner.ForceGeneric}, K: 12, GenSize: genSize},
				} {
					if fits(other) {
						t.Errorf("a node of %+v fits %+v", cfg, other)
					}
				}
			})
		}
	}
}
