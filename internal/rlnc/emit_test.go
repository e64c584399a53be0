package rlnc

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
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
					n.Receive(p)
					twin.Receive(p)
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
