package rlnc

import (
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/linalg"
)

// Scalar-vs-bulk at the packet level: BenchmarkEncodeScalar combines k
// payload rows one symbol at a time through Field.Mul/Add (the pre-kernel
// hot path), BenchmarkEncodeBulk is Node.Emit on the same configuration.
// BenchmarkDecode measures filling a fresh node to full rank and solving.

func benchNode(b *testing.B, k, r int) (*Node, [][]byte) {
	b.Helper()
	cfg := Config{Field: gf.MustNew(256), K: k, PayloadLen: r}
	rng := core.NewRand(3)
	src := MustNewNode(cfg)
	payloads := make([][]byte, k)
	for i := 0; i < k; i++ {
		payloads[i] = gf.RandBytes(cfg.Field, r, rng)
		src.Seed(Message{Index: i, Payload: payloads[i]})
	}
	return src, payloads
}

func BenchmarkEncodeScalar(b *testing.B) {
	for _, r := range []int{256, 1024} {
		b.Run(fmt.Sprintf("k=32,r=%d", r), func(b *testing.B) {
			f := gf.MustNew(256)
			_, payloads := benchNode(b, 32, r)
			rng := core.NewRand(5)
			out := make([]byte, r)
			b.SetBytes(int64(32 * r))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(out)
				for _, p := range payloads {
					c := gf.Rand(f, rng)
					if c == 0 {
						continue
					}
					for j, s := range p {
						out[j] = byte(f.Add(gf.Elem(out[j]), f.Mul(c, gf.Elem(s))))
					}
				}
			}
		})
	}
}

func BenchmarkEncodeBulk(b *testing.B) {
	for _, r := range []int{256, 1024} {
		b.Run(fmt.Sprintf("k=32,r=%d", r), func(b *testing.B) {
			src, _ := benchNode(b, 32, r)
			rng := core.NewRand(5)
			b.SetBytes(int64(32 * r))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src.Emit(rng) == nil {
					b.Fatal("nil packet")
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, r := range []int{256, 1024} {
		b.Run(fmt.Sprintf("k=32,r=%d", r), func(b *testing.B) {
			cfg := Config{Field: gf.MustNew(256), K: 32, PayloadLen: r}
			src, _ := benchNode(b, 32, r)
			rng := core.NewRand(7)
			// Pre-generate more packets than needed so every iteration
			// decodes from the same stream without re-emitting.
			pkts := make([]*Packet, 0, 64)
			for len(pkts) < 64 {
				pkts = append(pkts, src.Emit(rng))
			}
			// ReceiveOwned clobbers its packet: each is copied into tmp,
			// sized here, before the timer.
			tmp := clonePacket(pkts[0])
			b.SetBytes(int64(32 * r))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := MustNewNode(cfg)
				for _, p := range pkts {
					if dst.CanDecode() {
						break
					}
					dst.ReceiveOwned(copyPacket(tmp, p))
				}
				if _, err := dst.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkipEmit is what a sender pays toward a full receiver: the
// randomness of one emit, consumed without building the packet. A full
// rank-only GF(2) node of k columns skips k draws — on a core.NewRand
// stream one jump of the generator, whatever k is. k=16 is a
// fabric_sweep node, k=128 a sweep_rank one.
func BenchmarkSkipEmit(b *testing.B) {
	for _, k := range []int{16, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			n := MustNewNode(Config{Field: gf.MustNew(2), K: k, RankOnly: true})
			for i := 0; i < k; i++ {
				n.Seed(Message{Index: i})
			}
			rng := core.NewRand(5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !n.SkipEmit(rng) {
					b.Fatal("nothing skipped")
				}
			}
		})
	}
}

// BenchmarkGenSkipEmit is the same through a generation-coded node in the
// scale_sharded shape (k=64 in generations of 16): the generation pick is
// still drawn, the picked decoder's 16 draws are skipped.
func BenchmarkGenSkipEmit(b *testing.B) {
	n, err := NewGenNode(GenConfig{Inner: Config{Field: gf.MustNew(2), RankOnly: true}, K: 64, GenSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		n.Seed(Message{Index: i})
	}
	rng := core.NewRand(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.SkipEmit(rng) {
			b.Fatal("nothing skipped")
		}
	}
}

// BenchmarkScreenFlood measures the cost of *rejecting* hostile packets:
// the width/zero/corrupt screens in ReceiveOwned are what a Byzantine flood
// makes every honest node pay per packet, so rejection must stay cheap
// relative to an accepted reduction. Sub-benchmarks cover the three
// screen layers on the GF(256) backend this host selects: the Corrupt
// flag (a pollution verdict already attached by the verifier), an
// all-zero coefficient vector (non-innovative by construction), and a
// wrong-width coefficient row (malformed network input).
func BenchmarkScreenFlood(b *testing.B) {
	src, _ := benchNode(b, 32, 64)
	rng := core.NewRand(7)
	good := src.Emit(rng)
	if good == nil {
		b.Fatal("bench setup: expected an emission")
	}
	corrupt := *good
	corrupt.Corrupt = true
	zero := *good
	width := *good
	if src.SlicedMode() {
		zero.Sliced = make(linalg.SlicedVec, len(good.Sliced))
		width.Sliced = good.Sliced[:len(good.Sliced)-1]
	} else {
		zero.Coeffs = make([]gf.Elem, len(good.Coeffs))
		width.Coeffs = good.Coeffs[:len(good.Coeffs)-1]
	}

	cases := []struct {
		name string
		pkt  *Packet
	}{
		{"rlnc-corrupt", &corrupt},
		{"rlnc-zero", &zero},
		{"rlnc-width", &width},
	}
	sink := MustNewNode(src.cfg)
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			if sink.ReceiveOwned(c.pkt) {
				b.Fatalf("%s: screen accepted a hostile packet", c.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sink.ReceiveOwned(c.pkt) {
					b.Fatal("screen accepted a hostile packet")
				}
			}
		})
	}
}
