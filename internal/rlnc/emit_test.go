package rlnc

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// decoderState is every stored row and payload of n, copied, sub-decoder
// by sub-decoder, each led by its rank.
func decoderState(n *GenNode) [][]byte {
	words := func(ws []uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	var out [][]byte
	for _, s := range n.subs {
		out = append(out, []byte{byte(s.Rank())})
		for i := range s.Rank() {
			switch {
			case s.bit != nil:
				out = append(out, words(s.bit.Row(i)), append([]byte(nil), s.bit.Payload(i)...))
			case s.slc != nil:
				out = append(out, words(s.slc.Row(i)), words(s.slc.Payload(i)))
			default:
				var pay []byte
				if extra := s.cfg.extra(); extra > 0 {
					pay = make([]byte, extra)
					s.mat.PayloadInto(i, pay)
				}
				out = append(out, append([]byte(nil), gf.AsBytes(s.mat.Row(i))...), pay)
			}
		}
	}
	return out
}

// emitSequence is n emits of src on the stream of seed, into one packet
// of its own, each in wire form.
func emitSequence(src *GenNode, seed uint64, n int) [][]any {
	cfg, r, p := src.Config(), core.NewRand(seed), &GenPacket{}
	out := make([][]any, n)
	for i := range out {
		if !src.EmitInto(r, p) {
			panic("non-empty node refused to emit")
		}
		out[i] = []any{p.Gen, p.Packet.ExpandCoeffs(cfg.GenK(p.Gen)), p.Packet.ExpandPayload(cfg.Inner.PayloadLen)}
	}
	return out
}

// TestEmitIsReadOnly is linalg's TestEmitIsReadOnly through the codec the
// sharded wake phase calls: two goroutines emit from one GenNode at once,
// each from its own stream into its own packet, and each must get the
// packets of a serial run from the same seed, leaving every decoder as it
// was — rank, rows, payloads — and still decoding the messages. Every
// backend runs rank-only and with payloads, whole-k and at g = 4: packed
// bits (GF(2)), byte rows (GF(256) built on the host tier with
// ForceGeneric, so byte rows on every host) and bit-sliced (GF(256) built
// on the scalar tier, with its table kernels). Rank-only and whole-k,
// packed bits also run at three words a row (k = 160, the general loop)
// and four (k = 256, its own loop), and byte rows at k = 128; whole-k
// with payloads, byte rows also run at k = 128 and k = 300. Under
// -race a write to decoder-owned scratch is a reported race even where
// the bytes agree.
func TestEmitIsReadOnly(t *testing.T) {
	const r, perGoroutine = 40, 64
	type shape struct {
		k, genSize int
		rankOnly   bool
	}
	common := []shape{{70, 70, true}, {70, 70, false}, {70, 4, true}, {70, 4, false}}
	backends := []struct {
		name  string
		cfg   Config
		build func(t testing.TB, cfg GenConfig) *GenNode
		wide  []shape // whole-k shapes besides the common ones
	}{
		{"bit", Config{Field: gf.MustNew(2)}, mustGenNode, []shape{{160, 160, true}, {256, 256, true}}},
		{"byte-rows", Config{Field: gf.MustNew(256), ForceGeneric: true}, mustGenNode, []shape{{128, 128, true}, {128, 128, false}, {300, 300, false}}},
		{"sliced", Config{Field: gf.MustNew(256)}, func(t testing.TB, cfg GenConfig) *GenNode {
			var n *GenNode
			buildSliced(t, func() { n = mustGenNode(t, cfg) })
			return n
		}, nil},
	}
	for _, b := range backends {
		for _, sh := range slices.Concat(common, b.wide) {
			k, genSize, rankOnly := sh.k, sh.genSize, sh.rankOnly
			inner, mode := b.cfg, "rank-only"
			inner.RankOnly = rankOnly
			if !rankOnly {
				inner.PayloadLen, mode = r, "payload"
			}
			t.Run(fmt.Sprintf("%s/g=%d/%s", b.name, genSize, mode), func(t *testing.T) {
				cfg := GenConfig{Inner: inner, K: k, GenSize: genSize}
				rng := core.NewRand(uint64(genSize))
				msgs := make([]Message, k)
				for i := range msgs {
					msgs[i] = Message{Index: i}
					if !rankOnly {
						msgs[i].Payload = gf.RandBytes(inner.Field, r, rng)
					}
				}
				// The node under test and its twin hear the same packets
				// from a seeded source until they decode.
				src := b.build(t, cfg)
				for _, m := range msgs {
					src.Seed(m)
				}
				n, twin := b.build(t, cfg), b.build(t, cfg)
				if b.name == "sliced" && !n.subs[0].SlicedMode() {
					t.Fatal("node built on the scalar tier is not sliced")
				}
				for !n.CanDecode() {
					p := src.Emit(rng)
					n.ReceiveOwned(&GenPacket{Gen: p.Gen, Packet: clonePacket(p.Packet)})
					twin.ReceiveOwned(p)
				}
				before := decoderState(n)
				seeds := []uint64{11, 12}
				want := make([][][]any, len(seeds))
				for i, sd := range seeds {
					want[i] = emitSequence(n, sd, perGoroutine)
				}
				got := make([][][]any, len(seeds))
				var start, done sync.WaitGroup
				start.Add(1)
				for i, sd := range seeds {
					done.Add(1)
					go func() {
						defer done.Done()
						start.Wait()
						got[i] = emitSequence(n, sd, perGoroutine)
					}()
				}
				start.Done()
				done.Wait()
				for i := range seeds {
					for j := range want[i] {
						if !reflect.DeepEqual(got[i][j], want[i][j]) {
							t.Fatalf("goroutine %d, emit %d: concurrent packet differs from the serial one", i, j)
						}
					}
				}
				if after := decoderState(n); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(after, decoderState(twin)) {
					t.Fatal("emitting changed the decoders")
				}
				if rankOnly {
					return
				}
				decoded, err := n.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(decoded, msgs) {
					t.Fatal("decoded messages differ from the seeded ones")
				}
			})
		}
	}
}

// mustGenNode is NewGenNode for a configuration the test knows is valid.
func mustGenNode(t testing.TB, cfg GenConfig) *GenNode {
	t.Helper()
	n, err := NewGenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// contractStream is the core.NewRand(seed) stream advanced as one emit
// from n must advance it: the generation pick when n has more than one
// generation, then one draw per row the picked generation stores — a
// Uint64 over GF(2^m), a gf.Rand over a prime field. It also returns the
// generation picked.
func contractStream(n *GenNode, seed uint64) (*rand.Rand, int) {
	r, g := core.NewRand(seed), 0
	if len(n.subs) > 1 {
		// pick's IntN over the non-empty generations, in index order.
		pick := r.IntN(n.nonEmpty)
		for g = 0; n.subs[g].Rank() == 0 || pick > 0; g++ {
			if n.subs[g].Rank() > 0 {
				pick--
			}
		}
	}
	f := n.cfg.Inner.Field
	for range n.subs[g].Rank() {
		if q := f.Order(); q&(q-1) == 0 {
			r.Uint64()
		} else {
			gf.Rand(f, r)
		}
	}
	return r, g
}

// sameState reports whether two core.NewRand streams stand at the same
// place.
func sameState(a, b *rand.Rand) bool { return *core.Generator(a) == *core.Generator(b) }

// TestEmitDrawContract pins the draw contract at every coefficient draw
// site, on the one source there is: after one EmitInto — and after one
// SkipEmit — the core.NewRand(seed) stream stands exactly where
// contractStream puts a fresh one. The sites are the packed-bit emits of
// one, two and four words a row and the general one with payloads, the
// byte-row factors over GF(2^m) rank-only and with payloads, the
// bit-sliced emits with subset tables and without (k > 256), and the
// prime field, which SkipEmit draws through gf.Rand. Two generations,
// one full and one half full, so the pick is drawn; one case has a
// single generation, which draws no pick. Packed bits run at k = 16, 64,
// 128 and 256 too, one-, two- and four-word rows at the widths the
// workloads run. Every case runs under each kernel tier the host has:
// on gfni512 the rank-only packed emits and the byte-row factors draw in
// blocks (core.PCG.XorCoinRows, DrawBytes), below it through Uint64.
func TestEmitDrawContract(t *testing.T) {
	type build struct {
		name   string
		q, k   int
		r      int  // payload symbols; 0 is rank-only
		layout byte // 'b' packed bits, 'r' byte rows, 's' bit-sliced
		gens   int
	}
	for _, c := range []build{
		{"bit/1word", 2, 16, 0, 'b', 2},
		{"bit/2words", 2, 128, 0, 'b', 2},
		{"bit/4words", 2, 200, 0, 'b', 2},
		{"bit/k=64", 2, 64, 0, 'b', 2},
		{"bit/k=256", 2, 256, 0, 'b', 2},
		{"bit/k=256/one-generation", 2, 256, 0, 'b', 1},
		{"bit/general+payload", 2, 16, 8, 'b', 2},
		{"rows/gf256", 256, 40, 0, 'r', 2},
		{"rows/gf16+payload", 16, 40, 24, 'r', 2},
		{"rows/one-generation", 256, 40, 0, 'r', 1},
		{"sliced/tabbed+payload", 256, 40, 24, 's', 2},
		{"sliced/untabbed", 16, 300, 0, 's', 2},
		{"prime", 251, 40, 0, 'r', 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, tier := range gf.AvailableTiers() {
				t.Run(tier.String(), func(t *testing.T) {
					host := gf.ActiveTier()
					defer func() { _ = gf.SetTier(host) }()
					if err := gf.SetTier(tier); err != nil {
						t.Fatal(err)
					}
					f := gf.MustNew(c.q)
					inner := Config{Field: f, PayloadLen: c.r, RankOnly: c.r == 0, ForceGeneric: c.layout == 'r'}
					cfg := GenConfig{Inner: inner, K: c.gens * c.k, GenSize: c.k}
					var n *GenNode
					if c.layout == 's' {
						buildSliced(t, func() { n = mustGenNode(t, cfg) })
					} else {
						n = mustGenNode(t, cfg)
					}
					layout := byte('r')
					switch sub := n.subs[0]; {
					case sub.BitMode():
						layout = 'b'
					case sub.SlicedMode():
						layout = 's'
					}
					if layout != c.layout {
						t.Fatalf("built layout %c, want %c", layout, c.layout)
					}
					seeds := core.NewRand(uint64(c.q*1000 + c.k))
					for idx := 0; idx < cfg.K-c.k/2; idx++ {
						msg := Message{Index: idx}
						if c.r > 0 {
							msg.Payload = gf.RandBytes(f, c.r, seeds)
						}
						n.Seed(msg)
					}
					checkDrawContract(t, n)
				})
			}
		})
	}
}

// checkDrawContract emits once, and skips once, from n on the streams of
// seeds 0–15: each must leave its stream where contractStream puts a
// fresh one, and the emit must code over the generation it picks.
func checkDrawContract(t *testing.T, n *GenNode) {
	t.Helper()
	for seed := uint64(0); seed < 16; seed++ {
		want, gen := contractStream(n, seed)
		emitted, skipped, p := core.NewRand(seed), core.NewRand(seed), &GenPacket{}
		if !n.EmitInto(emitted, p) || !n.SkipEmit(skipped) {
			t.Fatal("non-empty node refused to emit")
		}
		if p.Gen != gen {
			t.Fatalf("seed %d: emitted generation %d, the contract's pick %d", seed, p.Gen, gen)
		}
		if !sameState(emitted, want) {
			t.Fatalf("seed %d: EmitInto left the stream off the contract's count", seed)
		}
		if !sameState(skipped, want) {
			t.Fatalf("seed %d: SkipEmit left the stream off the contract's count", seed)
		}
	}
}

// TestSkipEmitRefusesForeignSource: SkipEmit over GF(2^m) jumps the
// generator of a core.NewRand stream, so a *rand.Rand on any other
// source panics with a message naming core.NewRand and leaves that
// source where it stood.
func TestSkipEmitRefusesForeignSource(t *testing.T) {
	n := MustNewNode(Config{Field: gf.MustNew(256), K: 8, RankOnly: true})
	n.Seed(Message{Index: 3})
	src := rand.NewPCG(1, 2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "core.NewRand") {
			t.Fatalf("panic %q, want one naming core.NewRand", msg)
		}
		if got, want := src.Uint64(), rand.NewPCG(1, 2).Uint64(); got != want {
			t.Fatal("the refused source was advanced")
		}
	}()
	n.SkipEmit(rand.New(src))
}
