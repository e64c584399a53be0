package runtime

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/wire"
)

// TestReleasedArraysAreDead: with every array handed back to the free
// list filled with junk first, TCP, UDP and Chan clusters still decode the
// bytes they were seeded with, in every codec mode. So no decoder keeps a
// received array past its ingest, and no Send keeps the emit arrays it was
// given: the next emit overwrites them.
func TestReleasedArraysAreDead(t *testing.T) {
	poisonSpares.Store(true)
	defer poisonSpares.Store(false)
	transports := []struct {
		name string
		new  func() (Transport, error)
	}{
		{"chan", func() (Transport, error) { return NewChanTransport(), nil }},
		{"tcp", func() (Transport, error) { return NewTCPTransport(), nil }},
		{"udp", func() (Transport, error) { return NewUDPTransport() }},
	}
	modes := []struct {
		name   string
		q      int
		opts   []Option
		scalar bool // build the decoders on the scalar tier, where GF(16) is bit-sliced
	}{
		{"classic", 256, nil, false},
		{"generations", 256, []Option{WithGenerations(2)}, false},
		{"gf2-bit", 2, nil, false},
		{"gf16-sliced", 16, nil, true},
	}
	const k, r = 6, 24
	g := graph.Grid(3, 3)
	for _, tc := range transports {
		for _, m := range modes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				tr, err := tc.new()
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = tr.Close() }()
				field := gf.MustNew(m.q)
				opts := append([]Option{WithPayload(r), WithField(field),
					WithInterval(500 * time.Microsecond), WithSeed(17)}, m.opts...)
				host := gf.ActiveTier()
				if m.scalar {
					if err := gf.SetTier(gf.TierScalar); err != nil {
						t.Fatal(err)
					}
				}
				c, err := NewCluster(tr, g, k, opts...)
				if rerr := gf.SetTier(host); rerr != nil {
					t.Fatal(rerr)
				}
				if err != nil {
					t.Fatal(err)
				}
				msgs := seedMessagesField(t, c, field, k, r, g.N())
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if done, err := c.Run(ctx); err != nil || done != g.N() {
					t.Fatalf("completed %d/%d nodes: %v", done, g.N(), err)
				}
				verifyDecode(t, c, msgs, g.N())
			})
		}
	}
}

// TestLiveTrialAllocatesLittle pins the live steady state: once a trial
// has stocked the free list, an all-local 16-node TCP cluster moving 64
// messages of 4 KiB allocates under 1 MB a convergence, against the ≈6 MB
// of frames it moves. Building and seeding the cluster are not counted.
// The pin is the mean of ten trials, as the benchmark's per-trial figure
// is a mean: one trial whose burst grows a sender's pending buffer further
// or outruns the free list's stock can allocate 1–2 MB.
func TestLiveTrialAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16-node live cluster, twice")
	}
	if gf.ActiveTier() == gf.TierScalar {
		t.Skip("scalar tier: GF(256) nodes are bit-sliced, and rlnc's Adapt and ExpandPayload build a packet per frame")
	}
	const n, k, r = 16, 64, 4096
	g, err := graph.FromName("randreg", n, core.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	trial := func(seed uint64) uint64 {
		tr := NewTCPTransport()
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		seedMessagesField(t, c, gf.MustNew(256), k, r, n)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if done, err := c.Run(ctx); err != nil || done != n {
			t.Fatalf("completed %d/%d nodes: %v", done, n, err)
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	trial(1) // stocks the free list
	const trials = 10
	var total, most uint64
	for i := range trials {
		got := trial(uint64(2 + i))
		total += got
		most = max(most, got)
	}
	if mean := total / trials; mean >= 1<<20 {
		t.Errorf("a warm trial allocated %.2f MB on average (most %.2f MB), want < 1 MB", float64(mean)/1e6, float64(most)/1e6)
	} else {
		t.Logf("a warm trial allocated %.2f MB on average (most %.2f MB)", float64(mean)/1e6, float64(most)/1e6)
	}
}

// TestTCPStreamStopsAtAMalformedFrame: a stream that coalesces valid
// frames with a malformed one delivers the frames before it, then closes
// the connection without delivering anything after it, and nothing
// panics — whether the bad frame has the wrong magic, an undefined flag
// bit, or header lengths that disagree with its length prefix.
func TestTCPStreamStopsAtAMalformedFrame(t *testing.T) {
	good := func(from core.NodeID) []byte {
		b, err := wire.AppendFrame(nil, from%2, &Envelope{Kind: EnvelopePacket, From: from,
			Coeffs: []gf.Elem{1, 2, 3}, Payload: []byte("payload")})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Header offsets after the 4-byte length prefix: magic at 0, flags at
	// 4, k at 17.
	for _, bad := range []struct {
		name   string
		mangle func(frame []byte)
	}{
		{"magic", func(f []byte) { f[4] ^= 0xFF }},
		{"flags", func(f []byte) { f[4+4] |= 0x80 }},
		{"lengths", func(f []byte) { f[4+17+3]++ }},
	} {
		t.Run(bad.name, func(t *testing.T) {
			tr := NewTCPTransport()
			defer func() { _ = tr.Close() }()
			var boxes [2]<-chan Envelope
			for v := range boxes {
				var err error
				if boxes[v], err = tr.Register(core.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
			addr, _ := tr.Addr(0)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			broken := good(2)
			bad.mangle(broken)
			stream := bytes.Join([][]byte{good(10), good(11), broken, good(12), good(13)}, nil)
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			for v, from := range []core.NodeID{10, 11} {
				select {
				case env := <-boxes[v]:
					if env.From != from || string(env.Payload) != "payload" {
						t.Fatalf("node %d got %+v, want the frame from %d", v, env, from)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("node %d: the frame before the malformed one never arrived", v)
				}
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isReset(err) {
				t.Fatalf("the connection stayed open after a malformed frame: %v", err)
			}
			for v, box := range boxes {
				select {
				case env := <-box:
					t.Fatalf("node %d got a frame from %d, sent after the malformed one", v, env.From)
				default:
				}
			}
		})
	}
}

// isReset reports a connection the peer reset: closing a socket with
// unread bytes in its receive buffer resets it rather than sending FIN.
func isReset(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && !op.Timeout()
}

// TestTCPSendRefusalCountsAsDrop: Send encodes at once, so a frame the
// wire codec cannot encode fails its Send and counts as a drop, and the
// frames around it still arrive whole.
func TestTCPSendRefusalCountsAsDrop(t *testing.T) {
	tr := NewTCPTransport()
	defer func() { _ = tr.Close() }()
	inbox, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, env := range []Envelope{{From: 1}, {From: -1}, {From: 2}} {
		if err := tr.Send(ctx, 0, env); (err != nil) != (env.From < 0) {
			t.Fatalf("envelope %d (from %d): Send returned %v", i, env.From, err)
		}
	}
	for _, from := range []core.NodeID{1, 2} {
		select {
		case env := <-inbox:
			if env.From != from {
				t.Fatalf("got a frame from %d, want %d", env.From, from)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the frame from %d never arrived", from)
		}
	}
	waitFor(t, "node 0's two sends counted", func() bool { return tr.Stats().PerNode[0].Sent == 2 })
	if got := tr.Stats().PerNode[0]; got.Dropped != 1 {
		t.Fatalf("node 0 stats %+v, want 1 dropped", got)
	}
}

// TestFramesInAPartialWrite: when a coalesced write fails partway, the
// frames that ended within the bytes it wrote count as sent and only the
// rest as dropped, so no frame is counted both delivered and dropped.
func TestFramesInAPartialWrite(t *testing.T) {
	var batch []byte
	var ends []int
	for i, r := range []int{0, 4096, 7} {
		env := Envelope{From: core.NodeID(i), Coeffs: make([]gf.Elem, 16), Payload: make([]byte, r)}
		var err error
		if batch, err = wire.AppendFrame(batch, 0, &env); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(batch))
	}
	for _, c := range []struct{ n, want int }{
		{0, 0}, {3, 0}, {ends[0] - 1, 0}, {ends[0], 1}, {ends[0] + 4, 1},
		{ends[1] - 1, 1}, {ends[1], 2}, {ends[2] - 1, 2}, {ends[2], 3},
	} {
		if got := framesIn(batch, c.n); got != c.want {
			t.Errorf("framesIn(batch, %d) = %d, want %d (frames end at %v)", c.n, got, c.want, ends)
		}
	}
}

// BenchmarkUDPSendParallel: concurrent Sends of 4 KiB frames through one
// UDPTransport to a socket nobody reads; the cost of the shared datagram
// buffer and its lock under contention.
func BenchmarkUDPSendParallel(b *testing.B) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sink.Close() }()
	tr, err := NewUDPTransport()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Register(0); err != nil {
		b.Fatal(err)
	}
	tr.AddPeer(1, sink.LocalAddr().String())
	env := Envelope{Coeffs: make([]gf.Elem, 64), Payload: make([]byte, 4096)}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(wire.FrameLen(&env)))
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = tr.Send(ctx, 1, env)
		}
	})
}
