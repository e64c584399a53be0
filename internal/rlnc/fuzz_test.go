package rlnc

import (
	"bytes"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/linalg"
)

// FuzzSplitJoinBytes fuzzes the byte chunking layer: for any input that
// fits the declared capacity, split followed by join must reproduce it
// exactly, and out-of-capacity inputs must be rejected, never mangled.
func FuzzSplitJoinBytes(f *testing.F) {
	f.Add([]byte("hello"), uint8(4), uint8(8))
	f.Add([]byte{}, uint8(1), uint8(9))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(16), uint8(32))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, rRaw uint8) {
		k := 1 + int(kRaw)%32
		r := 1 + int(rRaw)%64
		msgs, err := SplitBytes(data, k, r)
		if err != nil {
			if k*r-8 >= len(data) {
				t.Fatalf("rejected fitting input: k=%d r=%d len=%d: %v", k, r, len(data), err)
			}
			return
		}
		got, err := JoinBytes(msgs)
		if err != nil {
			t.Fatalf("join failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(got))
		}
	})
}

// FuzzDecoderNeverPanics throws arbitrary coefficient/payload bytes at a
// node and requires graceful handling: rank stays within [0, k], and a
// full-rank node decodes without error. Wire bytes enter through Adapt,
// the boundary every transport uses — which also covers the sliced
// backend's pack path (GF(256) selects it by default).
func FuzzDecoderNeverPanics(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint64(2), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		const k, r = 4, 2
		cfg := Config{Field: gf.MustNew(256), K: k, PayloadLen: r}
		n := MustNewNode(cfg)
		// Feed raw bytes as wire packets, k+r bytes at a time.
		for i := 0; i+k+r <= len(raw); i += k + r {
			pkt := &Packet{
				Coeffs:  bytesToElems(raw[i : i+k]),
				Payload: append([]byte(nil), raw[i+k:i+k+r]...),
			}
			n.ReceiveOwned(n.Adapt(pkt))
			if n.Rank() < 0 || n.Rank() > k {
				t.Fatalf("rank %d out of range", n.Rank())
			}
		}
		// Top up with well-formed packets from a full source and decode.
		rng := core.NewRand(seed)
		src := MustNewNode(cfg)
		for i := 0; i < k; i++ {
			src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Field, r, rng)})
		}
		for guard := 0; !n.CanDecode() && guard < 1000; guard++ {
			n.ReceiveOwned(src.Emit(rng))
		}
		if !n.CanDecode() {
			t.Fatal("node never reached full rank")
		}
		if _, err := n.Decode(); err != nil {
			t.Fatalf("decode at full rank failed: %v", err)
		}
	})
}

// FuzzGenerationPacket throws malformed generation packets at a GenNode:
// arbitrary generation tags (including negative and far out of range) and
// arbitrary coefficient/payload lengths must be screened as unhelpful,
// never panicked on — generation tags arrive from the wire. After the
// garbage, a well-formed feed must still bring the node to a clean
// decode, and a node on a different backend must screen the same packet.
func FuzzGenerationPacket(f *testing.F) {
	f.Add(int64(0), []byte{1, 2, 3})
	f.Add(int64(-1), []byte{})
	f.Add(int64(1<<40), []byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, gen int64, raw []byte) {
		const k, r = 6, 2
		// Two generations of sizes 4 and 2, then the one-generation node every
		// classic run and live cluster now drives: its only valid tag is 0.
		for _, genSize := range []int{4, k} {
			// A prime field keeps the sub-decoders on the generic element
			// backend, so arbitrary-length Coeffs/Payload arrays reach the
			// inner length screening instead of the backend-shape screen.
			cfg := GenConfig{Inner: Config{Field: gf.MustNew(251), PayloadLen: r}, K: k, GenSize: genSize}
			n, err := NewGenNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			split := len(raw) / 2
			coeffs := make([]gf.Elem, split)
			for i := range coeffs {
				coeffs[i] = gf.Elem(raw[i] % 251)
			}
			payload := append([]byte(nil), raw[split:]...)
			for i := range payload {
				payload[i] %= 251
			}
			pkt := &GenPacket{Gen: int(gen), Packet: &Packet{Coeffs: coeffs, Payload: payload}}
			n.ReceiveOwned(&GenPacket{Gen: pkt.Gen, Packet: clonePacket(pkt.Packet)})
			if n.Rank() < 0 || n.Rank() > k {
				t.Fatalf("rank %d out of range after malformed packet", n.Rank())
			}
			if n.ReceiveOwned(nil) {
				t.Fatal("nil packet reported helpful")
			}
			if n.ReceiveOwned(&GenPacket{Gen: int(gen)}) {
				t.Fatal("packet with nil inner reported helpful")
			}
			// Top up from a full source: the garbage must not have corrupted
			// any generation's decoder state.
			rng := core.NewRand(uint64(len(raw)) + 1)
			src, err := NewGenNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, r, rng)})
			}
			for guard := 0; !n.CanDecode() && guard < 5000; guard++ {
				n.ReceiveOwned(src.Emit(rng))
			}
			if !n.CanDecode() {
				t.Fatal("node never reached full rank after screening garbage")
			}
			if _, err := n.Decode(); err != nil {
				t.Fatalf("decode at full rank failed: %v", err)
			}
			// Backend-shape screen: on the sliced backend a generic-element
			// packet must bounce even with a valid tag.
			var sliced *GenNode
			buildSliced(t, func() {
				sliced, err = NewGenNode(GenConfig{Inner: Config{Field: gf.MustNew(256), PayloadLen: r}, K: k, GenSize: genSize})
			})
			if err != nil {
				t.Fatal(err)
			}
			if sliced.ReceiveOwned(pkt) {
				t.Fatal("generic-backend packet reported helpful on a sliced-backend node")
			}
		}
	})
}

// FuzzReceive delivers arbitrary packets straight to ReceiveOwned and
// WouldHelp, in two forms. Native sliced packets — coefficient and payload
// rows of any word count and any content — go to a sliced-mode node: a row
// of the wrong word count is screened. The same bytes as a wire packet
// (one symbol per byte) go, raw and through Adapt, to a node of every
// field kind on every backend: a byte that is no field symbol is screened.
// Nothing panics, the rank stays in range, and a well-formed top-up still
// decodes.
func FuzzReceive(f *testing.F) {
	f.Add(uint8(4), uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(8), uint8(16), bytes.Repeat([]byte{0xFF}, 300))
	// Payload rows one word short and one word long of the 16 that r=70
	// takes at GF(256).
	f.Add(uint8(8), uint8(15), bytes.Repeat([]byte{7}, 64))
	f.Add(uint8(8), uint8(17), bytes.Repeat([]byte{7}, 64))
	f.Add(uint8(8), uint8(0), []byte{1})
	// Wire rows with bytes that are no field symbol: the coefficient row
	// that indexed past GF(7)'s inverse table and generic GF(16)'s
	// multiplication table, the lone 16 the sliced adapter used to mask to
	// zero, and a clean coefficient row over a dirty payload.
	f.Add(uint8(0), uint8(0), []byte{0xFF, 0x1F, 0x31, 7, 1, 1})
	f.Add(uint8(0), uint8(0), []byte{16, 0, 0, 0, 0, 0})
	f.Add(uint8(0), uint8(0), []byte{1, 2, 3, 1, 0xFF, 0x10})
	f.Fuzz(func(t *testing.T, coeffWords, payWords uint8, raw []byte) {
		const k, r = 5, 70
		cfg := Config{Field: gf.MustNew(256), K: k, PayloadLen: r}
		n, src := slicedNode(t, cfg), slicedNode(t, cfg)
		words := func(count uint8, skip int) linalg.SlicedVec {
			if count == 0 {
				return nil
			}
			v := make(linalg.SlicedVec, count%40)
			for i := range v {
				for b := 0; b < 8 && len(raw) > 0; b++ {
					v[i] |= uint64(raw[(skip+8*i+b)%len(raw)]) << (8 * b)
				}
			}
			return v
		}
		pkt := func() *Packet { return &Packet{Sliced: words(coeffWords, 0), SlicedPay: words(payWords, 3)} }
		wellFormed := len(pkt().Sliced) == 8 && len(pkt().SlicedPay) == 16
		helped := n.WouldHelp(pkt())
		got := n.ReceiveOwned(pkt())
		if got && !wellFormed {
			t.Fatalf("packet with %d coefficient and %d payload words accepted", len(pkt().Sliced), len(pkt().SlicedPay))
		}
		if got && !helped {
			t.Fatal("ReceiveOwned accepted a packet WouldHelp turned down")
		}
		if n.ReceiveOwned(pkt()) {
			t.Fatal("the same packet was helpful twice")
		}
		if n.Rank() < 0 || n.Rank() > 1 {
			t.Fatalf("rank %d after one packet", n.Rank())
		}
		topUp(t, n, src, uint64(len(raw)))

		fuzzWireSymbols(t, raw)
	})
}

// topUp fills n from a freshly seeded full-rank src and decodes it: what
// came before must not have corrupted the decoder.
func topUp(t *testing.T, n, src *Node, seed uint64) {
	t.Helper()
	cfg := src.cfg
	rng := core.NewRand(seed)
	for i := 0; i < cfg.K; i++ {
		src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Field, cfg.PayloadLen, rng)})
	}
	tmp := &Packet{}
	for guard := 0; !n.CanDecode() && guard < 1000; guard++ {
		src.EmitInto(rng, tmp)
		n.ReceiveOwned(tmp)
	}
	if !n.CanDecode() {
		t.Fatal("node never reached full rank")
	}
	if _, err := n.Decode(); err != nil {
		t.Fatalf("decode at full rank failed: %v", err)
	}
}

// symbolNodes builds one empty node per backend a field can run on: the
// generic one (ForceGeneric), the one the rule picks on the pure-Go tier
// (sliced for GF(2^m)) and the one it picks on this host.
func symbolNodes(t testing.TB, cfg Config) map[string]*Node {
	forced := cfg
	forced.ForceGeneric = true
	nodes := map[string]*Node{"generic": MustNewNode(forced), "host": MustNewNode(cfg)}
	buildSliced(t, func() { nodes["scalar"] = MustNewNode(cfg) })
	return nodes
}

// fuzzWireSymbols reads raw as a wire packet — four coefficients, two
// payload symbols, one per byte — and delivers it to every backend of a
// GF(2), a prime field, two small extension fields and GF(256), directly
// and through Adapt: a byte >= q anywhere makes it malformed, whichever
// backend the node runs on.
func fuzzWireSymbols(t *testing.T, raw []byte) {
	const k, r = 4, 2
	if len(raw) == 0 {
		return
	}
	row := make([]byte, k+r)
	for i := range row {
		row[i] = raw[i%len(raw)]
	}
	wire := func() *Packet {
		return &Packet{Coeffs: bytesToElems(row[:k]), Payload: append([]byte(nil), row[k:]...)}
	}
	for _, q := range []int{2, 7, 4, 16, 256} {
		malformed := false
		for _, s := range row {
			malformed = malformed || int(s) >= q
		}
		cfg := Config{Field: gf.MustNew(q), K: k, PayloadLen: r}
		src := symbolNodes(t, cfg)
		for name, n := range symbolNodes(t, cfg) {
			var helped, got bool
			if native := n.Adapt(wire()); native != nil {
				helped = n.WouldHelp(native)
				got = n.ReceiveOwned(native)
			}
			if got && (malformed || !helped) {
				t.Fatalf("GF(%d) %s: adapted row %v accepted (malformed %v, WouldHelp %v)", q, name, row, malformed, helped)
			}
			if !n.SlicedMode() && !n.BitMode() {
				// The wire form is this backend's native form: it can also
				// arrive without Adapt, and must meet the same screen
				// (WouldHelp reads the coefficient half only).
				n.WouldHelp(wire())
				if n.ReceiveOwned(wire()) {
					t.Fatalf("GF(%d) %s: raw row %v helpful after the adapted one (malformed %v)", q, name, row, malformed)
				}
			}
			if n.Rank() < 0 || n.Rank() > 1 || (malformed && n.Rank() != 0) {
				t.Fatalf("GF(%d) %s: rank %d after row %v", q, name, n.Rank(), row)
			}
			topUp(t, n, src[name], uint64(q))
		}
	}
}

func bytesToElems(b []byte) []gf.Elem {
	out := make([]gf.Elem, len(b))
	for i, x := range b {
		out[i] = gf.Elem(x)
	}
	return out
}
