package rlnc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/linalg"
)

func genericCfg(q, k, r int) Config {
	return Config{Field: gf.MustNew(q), K: k, PayloadLen: r}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil field", Config{K: 3, PayloadLen: 1}},
		{"zero k", Config{Field: gf.MustNew(2), PayloadLen: 1}},
		{"zero payload", Config{Field: gf.MustNew(2), K: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	// Rank-only mode needs no payload length.
	if _, err := NewNode(Config{Field: gf.MustNew(2), K: 3, RankOnly: true}); err != nil {
		t.Errorf("rank-only config rejected: %v", err)
	}
}

func TestSeedAndRank(t *testing.T) {
	n := MustNewNode(genericCfg(256, 4, 2))
	if n.Rank() != 0 || n.CanDecode() {
		t.Fatal("fresh node must be empty")
	}
	n.Seed(Message{Index: 0, Payload: []byte{1, 2}})
	n.Seed(Message{Index: 2, Payload: []byte{3, 4}})
	if n.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", n.Rank())
	}
	// Re-seeding the same index is not helpful.
	n.Seed(Message{Index: 0, Payload: []byte{1, 2}})
	if n.Rank() != 2 {
		t.Fatalf("rank after duplicate seed = %d, want 2", n.Rank())
	}
}

func TestEmitFromEmptyNode(t *testing.T) {
	for _, cfg := range []Config{
		genericCfg(256, 3, 2),
		{Field: gf.MustNew(2), K: 3, RankOnly: true},
	} {
		n := MustNewNode(cfg)
		if n.Emit(core.NewRand(1)) != nil {
			t.Error("empty node must emit nil")
		}
	}
}

// TestGossipPairConvergence wires two nodes directly: one holds all k
// messages, the other receives random combinations until it can decode.
// Validates emit→receive→decode end to end on every backend.
func TestGossipPairConvergence(t *testing.T) {
	cfgs := []Config{
		genericCfg(2, 6, 4),
		genericCfg(4, 6, 4),
		genericCfg(256, 6, 4),
		{Field: gf.MustNew(256), K: 6, RankOnly: true},
		{Field: gf.MustNew(2), K: 6, RankOnly: true}, // bit backend
	}
	for _, cfg := range cfgs {
		name := cfg.Field.Name()
		if cfg.RankOnly {
			name += "-rankonly"
		}
		t.Run(name, func(t *testing.T) {
			rng := core.NewRand(42)
			src := MustNewNode(cfg)
			msgs := make([]Message, cfg.K)
			for i := range msgs {
				msgs[i] = Message{Index: i}
				if !cfg.RankOnly {
					msgs[i].Payload = gf.RandBytes(cfg.Field, cfg.PayloadLen, rng)
				}
				src.Seed(msgs[i])
			}
			if !src.CanDecode() {
				t.Fatal("source must be full rank after seeding all messages")
			}
			dst := MustNewNode(cfg)
			transmissions := 0
			for !dst.CanDecode() {
				transmissions++
				if transmissions > 10000 {
					t.Fatal("no convergence")
				}
				dst.Receive(src.Emit(rng))
			}
			// With q >= 2, expected transmissions ≈ k/(1-1/q); allow slack.
			if transmissions > 40*cfg.K {
				t.Errorf("took %d transmissions for k=%d", transmissions, cfg.K)
			}
			if cfg.RankOnly {
				if _, err := dst.Decode(); err == nil {
					t.Error("rank-only decode must fail")
				}
				return
			}
			got, err := dst.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range msgs {
				if got[i].Index != i {
					t.Fatalf("message %d has index %d", i, got[i].Index)
				}
				for j := range msgs[i].Payload {
					if got[i].Payload[j] != msgs[i].Payload[j] {
						t.Fatalf("payload mismatch at message %d symbol %d", i, j)
					}
				}
			}
		})
	}
}

// TestReplayThenHonestDecodes: a byte-row node's replay (EmitReplayInto)
// carries its first echelon row, the payload formed from the raw rows it
// stores, into a recycled packet with a stale, longer payload; a receiver
// that takes the replay, the same replay again (useless), and then honest
// packets decodes exactly the seeded messages.
func TestReplayThenHonestDecodes(t *testing.T) {
	for _, q := range []int{256, 251} {
		cfg := Config{Field: gf.MustNew(q), K: 8, PayloadLen: 40, ForceGeneric: true}
		t.Run(cfg.Field.Name(), func(t *testing.T) {
			rng := core.NewRand(uint64(q))
			src, relay, dst := MustNewNode(cfg), MustNewNode(cfg), MustNewNode(cfg)
			msgs := make([]Message, cfg.K)
			for i := range msgs {
				msgs[i] = Message{Index: i, Payload: gf.RandBytes(cfg.Field, cfg.PayloadLen, rng)}
				src.Seed(msgs[i])
			}
			for relay.Rank() < 3 {
				relay.Receive(src.Emit(rng))
			}
			pkt := &Packet{Payload: bytes.Repeat([]byte{byte(q - 1)}, 2*cfg.PayloadLen)}
			if !relay.EmitReplayInto(pkt) || len(pkt.Payload) != cfg.PayloadLen {
				t.Fatalf("replay into a recycled packet: %d payload bytes, want %d", len(pkt.Payload), cfg.PayloadLen)
			}
			if !dst.Receive(pkt) {
				t.Fatal("the first replay was not helpful to an empty node")
			}
			if dst.Receive(pkt) {
				t.Fatal("a replayed row helped twice")
			}
			for sent := 0; !dst.CanDecode(); sent++ {
				if sent > 100*cfg.K {
					t.Fatal("no convergence")
				}
				dst.Receive(src.Emit(rng))
			}
			got, err := dst.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range msgs {
				if !bytes.Equal(got[i].Payload, msgs[i].Payload) {
					t.Fatalf("message %d decoded wrong after a replay", i)
				}
			}
		})
	}
}

func TestDecodeBeforeFullRank(t *testing.T) {
	n := MustNewNode(genericCfg(256, 3, 1))
	n.Seed(Message{Index: 0, Payload: []byte{7}})
	if _, err := n.Decode(); !errors.Is(err, ErrCannotDecode) {
		t.Fatalf("err = %v, want ErrCannotDecode", err)
	}
}

func TestReceiveNilAndZero(t *testing.T) {
	n := MustNewNode(genericCfg(256, 3, 1))
	if n.Receive(nil) {
		t.Error("nil packet must not help")
	}
	zero := &Packet{Coeffs: make([]gf.Elem, 3), Payload: make([]byte, 1)}
	if n.Receive(zero) {
		t.Error("zero packet must not help")
	}
}

// TestReceiveMalformedLengths: packets can arrive from the network with a
// peer's mismatched configuration; they must be rejected, not panic.
// ForceGeneric pins the generic backend's screen — GF(2^m) nodes select
// the sliced backend and apply their own (TestReceiveMalformedSliced).
func TestReceiveMalformedLengths(t *testing.T) {
	cfg := genericCfg(256, 3, 2)
	cfg.ForceGeneric = true
	n := MustNewNode(cfg)
	n.Seed(Message{Index: 0, Payload: []byte{1, 2}})
	cases := []*Packet{
		{Coeffs: []gf.Elem{1, 2}, Payload: []byte{3, 4}},       // short coeffs
		{Coeffs: []gf.Elem{1, 2, 3, 4}, Payload: []byte{3, 4}}, // long coeffs
		{Coeffs: []gf.Elem{0, 1, 0}, Payload: []byte{3}},       // short payload
		{Coeffs: []gf.Elem{0, 1, 0}, Payload: []byte{3, 4, 5}}, // long payload
		{Coeffs: []gf.Elem{0, 1, 0}},                           // missing payload
	}
	for i, p := range cases {
		if n.Receive(p) {
			t.Errorf("malformed packet %d reported helpful", i)
		}
		if n.WouldHelp(p) && len(p.Coeffs) != 3 {
			t.Errorf("malformed packet %d reported WouldHelp", i)
		}
	}
	if n.Rank() != 1 {
		t.Fatalf("rank changed to %d after malformed packets", n.Rank())
	}
}

// TestReceiveMalformedBits: the bit backend applies the same screen — a
// packed vector with the wrong word count or stray bits past k-1 is
// rejected, never panics, and never inflates the rank past k.
func TestReceiveMalformedBits(t *testing.T) {
	n := MustNewNode(Config{Field: gf.MustNew(2), K: 4, RankOnly: true})
	n.Seed(Message{Index: 0})
	stray := linalg.NewBitVec(4)
	stray[0] = 1 << 10 // bit index 10 >= k
	cases := []*Packet{
		{Bits: linalg.BitVec{}},       // zero words
		{Bits: linalg.NewBitVec(130)}, // too many words
		{Bits: stray},                 // stray high bit
	}
	for i, p := range cases {
		if n.Receive(p) || n.WouldHelp(p) {
			t.Errorf("malformed bit packet %d accepted", i)
		}
	}
	if n.Rank() != 1 {
		t.Fatalf("rank = %d after malformed bit packets, want 1", n.Rank())
	}
}

// TestReceiveMalformedSymbols: a wire byte that is no field symbol (>= q)
// is malformed on every backend — Adapt returns nil, the receive paths
// report it unhelpful, the rank does not move and nothing panics. The
// coefficient row is the one that indexed past GF(7)'s inverse table
// (RankMatrix.insert) and generic GF(16)'s multiplication table on the
// wire-facing path; at GF(256) every byte is a symbol and it is helpful.
func TestReceiveMalformedSymbols(t *testing.T) {
	for _, q := range []int{3, 7, 4, 16, 256} {
		cfg := Config{Field: gf.MustNew(q), K: 4, PayloadLen: 2}
		for name, n := range symbolNodes(t, cfg) {
			rows := []struct {
				name            string
				coeffs, payload []byte
			}{
				{"coefficients", []byte{0xFF, 0x1F, 0x31, 7}, []byte{1, 1}},
				{"payload", []byte{1, 2, 1, 0}, []byte{1, 0xFF}},
			}
			for _, row := range rows {
				wire := func() *Packet {
					return &Packet{Coeffs: bytesToElems(row.coeffs), Payload: append([]byte(nil), row.payload...)}
				}
				native := n.Adapt(wire())
				if q == 256 {
					if native == nil || !n.Receive(native) {
						t.Errorf("GF(256) %s: %s row rejected, every byte is a symbol", name, row.name)
					}
					continue
				}
				if native != nil {
					t.Errorf("GF(%d) %s: Adapt accepted a %s row with a byte >= q", q, name, row.name)
				}
				if n.SlicedMode() {
					continue // the wire form reaches a sliced node through Adapt only
				}
				if row.name == "coefficients" && n.WouldHelp(wire()) {
					t.Errorf("GF(%d) %s: WouldHelp accepted a coefficient >= q", q, name)
				}
				if n.Receive(wire()) || n.ReceiveOwned(wire()) {
					t.Errorf("GF(%d) %s: Receive accepted a %s row with a byte >= q", q, name, row.name)
				}
			}
			want := 0
			if q == 256 {
				want = len(rows)
			}
			if n.Rank() != want {
				t.Errorf("GF(%d) %s: rank %d after malformed rows, want %d", q, name, n.Rank(), want)
			}
		}
	}
}

// TestReceiveMalformedSliced: the sliced backend applies the same screen —
// a sliced vector with the wrong word count or stray bits past column k-1
// in any plane is rejected, never panics, and never inflates the rank.
func TestReceiveMalformedSliced(t *testing.T) {
	n := slicedNode(t, Config{Field: gf.MustNew(16), K: 5, RankOnly: true})
	n.Seed(Message{Index: 0})
	stride := 4 * 1 // m=4 planes, 1 word each for k=5
	stray := make(linalg.SlicedVec, stride)
	stray[2] = 1 << 9 // column 9 >= k in plane 2
	cases := []*Packet{
		{Sliced: linalg.SlicedVec{1}},              // too few words
		{Sliced: make(linalg.SlicedVec, 2*stride)}, // too many words
		{Sliced: stray},                            // stray high column
	}
	for i, p := range cases {
		if n.Receive(p) || n.WouldHelp(p) {
			t.Errorf("malformed sliced packet %d accepted", i)
		}
	}
	if n.Rank() != 1 {
		t.Fatalf("rank = %d after malformed sliced packets, want 1", n.Rank())
	}
	// Payload mode also screens the payload row's word count.
	for _, q := range []int{16, 256} {
		np := slicedNode(t, Config{Field: gf.MustNew(q), K: 5, PayloadLen: 70})
		np.Seed(Message{Index: 1, Payload: make([]byte, 70)})
		good := np.Emit(core.NewRand(1))
		// Two 64-symbol blocks: m planes of 2 words.
		want := len(good.SlicedPay)
		unit := func() linalg.SlicedVec { // e_3: column 3 of plane 0
			v := make(linalg.SlicedVec, len(good.Sliced))
			v[0] = 1 << 3
			return v
		}
		for _, words := range []int{0, 1, want - 1, want + 1, 2 * want} {
			p := &Packet{Sliced: unit()}
			if words > 0 {
				p.SlicedPay = make(linalg.SlicedVec, words)
			}
			if np.Receive(p) || np.ReceiveOwned(p) {
				t.Errorf("gf=%d: payload row of %d words accepted, want %d", q, words, want)
			}
		}
		if np.Rank() != 1 {
			t.Fatalf("gf=%d: rank = %d after malformed payload rows, want 1", q, np.Rank())
		}
		if !np.ReceiveOwned(&Packet{Sliced: unit(), SlicedPay: make(linalg.SlicedVec, want)}) {
			t.Errorf("gf=%d: well-formed packet rejected", q)
		}
	}
}

// TestHelpfulNodePredicate exercises Definition 3: x is helpful to y iff
// x's subspace is not contained in y's.
func TestHelpfulNodePredicate(t *testing.T) {
	cfg := genericCfg(256, 4, 1)
	x := MustNewNode(cfg)
	y := MustNewNode(cfg)
	x.Seed(Message{Index: 0, Payload: []byte{1}})
	if !x.HelpfulTo(y) {
		t.Fatal("x with info must be helpful to empty y")
	}
	if y.HelpfulTo(x) {
		t.Fatal("empty y cannot be helpful")
	}
	y.Seed(Message{Index: 0, Payload: []byte{1}})
	if x.HelpfulTo(y) {
		t.Fatal("equal subspaces are not helpful")
	}
	x.Seed(Message{Index: 1, Payload: []byte{2}})
	if !x.HelpfulTo(y) {
		t.Fatal("strictly larger subspace must be helpful")
	}
}

func TestHelpfulNodePredicateBitMode(t *testing.T) {
	cfg := Config{Field: gf.MustNew(2), K: 4, RankOnly: true}
	x := MustNewNode(cfg)
	y := MustNewNode(cfg)
	x.Seed(Message{Index: 2})
	if !x.HelpfulTo(y) || y.HelpfulTo(x) {
		t.Fatal("helpfulness wrong on bit backend")
	}
	y.Seed(Message{Index: 2})
	if x.HelpfulTo(y) {
		t.Fatal("equal subspaces are not helpful (bit backend)")
	}
}

// TestHelpfulMessageProbability empirically checks Lemma 2.1 of Deb et al.:
// a combination from a helpful node is helpful with probability >= 1 - 1/q.
func TestHelpfulMessageProbability(t *testing.T) {
	for _, q := range []int{2, 4, 256} {
		cfg := genericCfg(q, 8, 1)
		rng := core.NewRand(uint64(q))
		src := MustNewNode(cfg)
		for i := 0; i < cfg.K; i++ {
			src.Seed(Message{Index: i, Payload: []byte{byte(i % q)}})
		}
		dst := MustNewNode(cfg)
		dst.Seed(Message{Index: 0, Payload: []byte{0}})

		const trials = 3000
		helpful := 0
		for i := 0; i < trials; i++ {
			if dst.WouldHelp(src.Emit(rng)) {
				helpful++
			}
		}
		rate := float64(helpful) / trials
		want := 1 - 1/float64(q)
		if rate < want-0.05 {
			t.Errorf("q=%d: helpful rate %.3f below 1-1/q=%.3f", q, rate, want)
		}
	}
}

func TestSeedPanicsOnBadIndex(t *testing.T) {
	n := MustNewNode(genericCfg(2, 3, 1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Seed(Message{Index: 3, Payload: []byte{1}})
}

func TestBackendMismatchPanics(t *testing.T) {
	bitNode := MustNewNode(Config{Field: gf.MustNew(2), K: 3, RankOnly: true})
	genNode := MustNewNode(genericCfg(256, 3, 1))
	genNode.Seed(Message{Index: 0, Payload: []byte{1}})
	bitNode.Seed(Message{Index: 0})
	assertPanics(t, func() { bitNode.Receive(genNode.Emit(core.NewRand(1))) })
	assertPanics(t, func() { genNode.Receive(bitNode.Emit(core.NewRand(1))) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	fn()
}

func TestSplitJoinBytesRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello, gossip"),
		{},
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	for _, data := range payloads {
		k := 8
		r := (len(data)+8)/k + 1
		msgs, err := SplitBytes(data, k, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != k {
			t.Fatalf("got %d messages, want %d", len(msgs), k)
		}
		// Shuffle order to prove order independence.
		msgs[0], msgs[k-1] = msgs[k-1], msgs[0]
		got, err := JoinBytes(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
		}
	}
}

func TestSplitBytesCapacity(t *testing.T) {
	if _, err := SplitBytes(make([]byte, 100), 4, 4); err == nil {
		t.Error("expected capacity error")
	}
}

func TestJoinBytesErrors(t *testing.T) {
	msgs, err := SplitBytes([]byte("abc"), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]Message(nil), msgs...)
	dup[1] = dup[0]
	if _, err := JoinBytes(dup); err == nil {
		t.Error("duplicate index not rejected")
	}
	if _, err := JoinBytes(nil); err == nil {
		t.Error("empty input not rejected")
	}
}

// TestFullRLNCRoundTripQuick: random data of random size survives
// split → encode → network-coded delivery → decode → join.
func TestFullRLNCRoundTripQuick(t *testing.T) {
	f := gf.MustNew(256)
	check := func(seed uint64, sizeRaw uint16) bool {
		rng := core.NewRand(seed)
		size := int(sizeRaw) % 500
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		k := 5
		r := (size+8)/k + 1
		msgs, err := SplitBytes(data, k, r)
		if err != nil {
			return false
		}
		cfg := Config{Field: f, K: k, PayloadLen: r}
		src := MustNewNode(cfg)
		for _, m := range msgs {
			src.Seed(m)
		}
		dst := MustNewNode(cfg)
		for i := 0; i < 1000 && !dst.CanDecode(); i++ {
			dst.Receive(src.Emit(rng))
		}
		decoded, err := dst.Decode()
		if err != nil {
			return false
		}
		got, err := JoinBytes(decoded)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
