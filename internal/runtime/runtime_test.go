package runtime

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

func seedMessages(t *testing.T, c *Cluster, k, r, n int) []rlnc.Message {
	t.Helper()
	rng := core.NewRand(99)
	field := gf.MustNew(256)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
		if err := c.Seed(core.NodeID(i%n), msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return msgs
}

func verifyDecode(t *testing.T, c *Cluster, msgs []rlnc.Message, n int) {
	t.Helper()
	for v := 0; v < n; v++ {
		verifyNode(t, c, core.NodeID(v), msgs)
	}
}

func verifyNode(t *testing.T, c *Cluster, v core.NodeID, msgs []rlnc.Message) {
	t.Helper()
	got, err := c.Decode(v)
	if err != nil {
		t.Fatalf("node %d: %v", v, err)
	}
	for i := range msgs {
		for j := range msgs[i].Payload {
			if got[i].Payload[j] != msgs[i].Payload[j] {
				t.Fatalf("node %d message %d symbol %d mismatch", v, i, j)
			}
		}
	}
}

func TestClusterChanTransport(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 5, WithPayload(8), WithInterval(200*time.Microsecond), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, 5, 8, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
	// Status reflects completion for every node.
	for _, st := range c.Status() {
		if !st.Done || st.Rank != st.K {
			t.Fatalf("node %d status %+v after completed run", st.ID, st)
		}
	}
}

func TestClusterTCPTransport(t *testing.T) {
	g := graph.Ring(6)
	tr := NewTCPTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 4, WithPayload(6), WithInterval(500*time.Microsecond), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, 4, 6, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
	if _, ok := tr.Addr(0); !ok {
		t.Error("Addr lookup failed for registered node")
	}
	if s := tr.Stats(); s.Total.Sent == 0 {
		t.Error("TCP transport reported zero sends after a completed run")
	}
}

func TestClusterUDPTransport(t *testing.T) {
	g := graph.Ring(6)
	tr, err := NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 4, WithPayload(6), WithInterval(500*time.Microsecond), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, 4, 6, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
}

// TestUDPSendRefusalsCountAsDrops: a frame UDPTransport refuses — one
// too big for a datagram, or one the wire codec cannot encode — fails its
// Send and counts as a drop for its destination, as NodeStats.Dropped
// documents, so /metrics reports every discard.
func TestUDPSendRefusalsCountAsDrops(t *testing.T) {
	tr, err := NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Register(0); err != nil {
		t.Fatal(err)
	}
	for i, env := range []Envelope{
		{From: 1, Payload: make([]byte, maxDatagram)},
		{From: -1},
	} {
		if err := tr.Send(context.Background(), 0, env); err == nil {
			t.Fatalf("envelope %d: Send accepted a frame it cannot put in a datagram", i)
		}
		if got := tr.Stats().PerNode[0]; got.Dropped != uint64(i+1) || got.Sent != 0 {
			t.Fatalf("after refusal %d: node 0 stats %+v, want %d dropped and none sent", i, got, i+1)
		}
	}
}

// TestClusterGenerationMode runs a generation-coded cluster end to end:
// envelopes carry per-generation coefficient vectors plus the Gen tag,
// exercising GenNode.Adapt on the receive path and full decode.
func TestClusterGenerationMode(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 6, WithPayload(4), WithGenerations(2),
		WithInterval(200*time.Microsecond), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, 6, 4, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
}

func TestClusterContextCancel(t *testing.T) {
	g := graph.Line(4)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 3, WithPayload(4), WithInterval(time.Hour), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// Seed only one message so the cluster cannot finish; then cancel.
	if err := c.Seed(0, rlnc.Message{Index: 0, Payload: make([]byte, 4)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done, err := c.Run(ctx)
	if err == nil {
		t.Fatal("expected interruption error")
	}
	if done == g.N() {
		t.Fatal("cluster cannot have finished")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	if _, err := NewCluster(tr, nil, 3); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewCluster(tr, graph.Ring(4), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCluster(tr, graph.Ring(4), 3, WithGenerations(9)); err == nil {
		t.Error("generation size above k accepted")
	}
	if _, err := NewCluster(tr, graph.Ring(4), 3, WithLocalNodes(0, 9)); err == nil {
		t.Error("out-of-range local node accepted")
	}
	if _, err := NewCluster(tr, graph.Ring(4), 3, WithLocalNodes(0, 0)); err == nil {
		t.Error("duplicate local node accepted")
	}
}

// TestClusterLocalSubsetAccessors: non-local nodes are rejected by the
// per-node accessors instead of panicking.
func TestClusterLocalSubsetAccessors(t *testing.T) {
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, graph.Ring(4), 2, WithPayload(2), WithLocalNodes(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(3, rlnc.Message{Index: 0, Payload: make([]byte, 2)}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("seed at non-local node: %v", err)
	}
	if r := c.Rank(3); r != -1 {
		t.Errorf("rank of non-local node = %d, want -1", r)
	}
	if _, err := c.Decode(3); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("decode at non-local node: %v", err)
	}
	if got := len(c.Status()); got != 2 {
		t.Errorf("status has %d entries, want 2", got)
	}
}

func TestChanTransportErrors(t *testing.T) {
	ctx := context.Background()
	tr := NewChanTransport()
	if _, err := tr.Register(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register(1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := tr.Send(ctx, 2, Envelope{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send to unknown node: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(ctx, 1, Envelope{}); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("send after close: %v", err)
	}
	if _, err := tr.Register(3); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("register after close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Error("double close must be nil")
	}
}

// TestChanTransportBackpressureDrops forces backpressure and checks the
// typed error plus the drop counters: the inbox holds inboxSize
// envelopes, every further Send must fail fast with ErrBackpressure and
// show up in Stats.
func TestChanTransportBackpressureDrops(t *testing.T) {
	ctx := context.Background()
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	if _, err := tr.Register(0); err != nil {
		t.Fatal(err)
	}
	var backpressured int
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for i := 0; i < inboxSize*3; i++ {
			if err := tr.Send(ctx, 0, Envelope{From: 1}); errors.Is(err, ErrBackpressure) {
				backpressured++
			} else if err != nil {
				t.Errorf("unexpected send error: %v", err)
				return
			}
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on full inbox")
	}
	if backpressured != inboxSize*2 {
		t.Errorf("%d sends backpressured, want %d", backpressured, inboxSize*2)
	}
	s := tr.Stats()
	if s.Total.Sent != inboxSize || s.Total.Dropped != inboxSize*2 {
		t.Errorf("stats %+v, want sent=%d dropped=%d", s.Total, inboxSize, inboxSize*2)
	}
	if per := s.PerNode[0]; per.Dropped != inboxSize*2 {
		t.Errorf("per-node drops %d, want %d", per.Dropped, inboxSize*2)
	}
}

func TestTCPTransportSendUnknown(t *testing.T) {
	tr := NewTCPTransport()
	defer func() { _ = tr.Close() }()
	if err := tr.Send(context.Background(), 9, Envelope{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send to unknown node: %v", err)
	}
}

// TestTCPTransportPeersRoute checks the multi-process seam: two separate
// transports, each with one registered node, exchanging envelopes purely
// through declared peer addresses.
func TestTCPTransportPeersRoute(t *testing.T) {
	ctx := context.Background()
	a := NewTCPTransport()
	defer func() { _ = a.Close() }()
	b := NewTCPTransport()
	defer func() { _ = b.Close() }()
	if _, err := a.Register(0); err != nil {
		t.Fatal(err)
	}
	inboxB, err := b.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	addrB, _ := b.Addr(1)
	a.AddPeer(1, addrB)
	env := Envelope{From: 0, WantReply: true, Coeffs: []gf.Elem{7, 8, 9}}
	if err := a.Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-inboxB:
		if got.From != 0 || !got.WantReply || len(got.Coeffs) != 3 || got.Coeffs[2] != 9 {
			t.Fatalf("received %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cross-transport envelope never arrived")
	}
}

// socketEndpoint is what the one-socket tests need of a socket transport.
type socketEndpoint interface {
	Transport
	AddPeer(id core.NodeID, addr string)
	Addr(id core.NodeID) (string, bool)
}

// exchangeAcross gives transport a nodes 0–3 and transport b nodes 4–7,
// declares each side's nodes to the other, and sends one frame along each
// of the 16 cross pairs in both directions: every frame must land in its
// own inbox, and each side's four nodes must share one address.
func exchangeAcross(t *testing.T, a, b socketEndpoint) {
	t.Helper()
	sides := [2]socketEndpoint{a, b}
	boxes := make(map[core.NodeID]<-chan Envelope)
	var addrs [2]string
	for p, tr := range sides {
		for i := 0; i < 4; i++ {
			v := core.NodeID(4*p + i)
			inbox, err := tr.Register(v)
			if err != nil {
				t.Fatal(err)
			}
			boxes[v] = inbox
			addr, ok := tr.Addr(v)
			if !ok || (i > 0 && addr != addrs[p]) {
				t.Fatalf("node %d at %q (%v), its transport's first node at %q", v, addr, ok, addrs[p])
			}
			addrs[p] = addr
		}
	}
	if addrs[0] == addrs[1] {
		t.Fatalf("two transports share the address %s", addrs[0])
	}
	for p := range sides {
		for i := 0; i < 4; i++ {
			sides[1-p].AddPeer(core.NodeID(4*p+i), addrs[p])
		}
	}
	ctx := context.Background()
	for u := core.NodeID(0); u < 4; u++ {
		for v := core.NodeID(4); v < 8; v++ {
			if err := a.Send(ctx, v, Envelope{From: u}); err != nil {
				t.Fatal(err)
			}
			if err := b.Send(ctx, u, Envelope{From: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for v, inbox := range boxes {
		from := map[core.NodeID]bool{}
		for len(from) < 4 {
			select {
			case env := <-inbox:
				if env.From/4 == v/4 || from[env.From] {
					t.Fatalf("node %d got a frame from %d (already heard %v)", v, env.From, from)
				}
				from[env.From] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("node %d heard only %v", v, from)
			}
		}
	}
}

// TestTCPOneConnectionPerPeerProcess: a TCP transport is its process's one
// endpoint — one listener for every local node, and one sender and one
// connection per peer process, not per peer node.
func TestTCPOneConnectionPerPeerProcess(t *testing.T) {
	a, b := NewTCPTransport(), NewTCPTransport()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	exchangeAcross(t, a, b)
	for _, tr := range []*TCPTransport{a, b} {
		tr.mu.Lock()
		senders, inbound := len(tr.senders), len(tr.inbound)
		tr.mu.Unlock()
		if senders != 1 || inbound != 1 {
			t.Errorf("%d senders and %d inbound connections for one peer process, want 1 and 1", senders, inbound)
		}
	}
}

// TestUDPOneSocket: a UDP transport reads and sends on one socket, so a
// datagram it sends comes from the address its nodes are reached at.
func TestUDPOneSocket(t *testing.T) {
	a, _ := NewUDPTransport()
	b, _ := NewUDPTransport()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	exchangeAcross(t, a, b)

	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	a.AddPeer(9, raw.LocalAddr().String())
	if err := a.Send(context.Background(), 9, Envelope{From: 0}); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, maxDatagram)
	_, src, err := raw.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := a.Addr(0); src.String() != want {
		t.Errorf("datagram sent from %s, want the transport's one address %s", src, want)
	}
}

// TestRegisterRefusesASecondAddress: the local nodes of a transport are
// declared at one address or at none; a node declared elsewhere is
// refused, naming both addresses, and the same declaration is shared.
func TestRegisterRefusesASecondAddress(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func() socketEndpoint
	}{
		{"tcp", func() socketEndpoint { return NewTCPTransport() }},
		{"udp", func() socketEndpoint { tr, _ := NewUDPTransport(); return tr }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.new()
			defer func() { _ = tr.Close() }()
			tr.AddPeer(0, "127.0.0.1:0")
			tr.AddPeer(1, "127.0.0.1:0") // the same declaration: shared
			tr.AddPeer(3, "127.0.0.1:9")
			for _, v := range []core.NodeID{0, 1, 2} { // 2 is undeclared: shared
				if _, err := tr.Register(v); err != nil {
					t.Fatalf("node %d: %v", v, err)
				}
			}
			bound, _ := tr.Addr(0)
			_, err := tr.Register(3)
			if err == nil || !strings.Contains(err.Error(), "127.0.0.1:9") || !strings.Contains(err.Error(), bound) {
				t.Fatalf("node 3 declared at a second address: %v, want a refusal naming 127.0.0.1:9 and %s", err, bound)
			}
			if _, ok := tr.Addr(3); ok {
				t.Error("a refused node has an address")
			}
		})
	}
}

// TestTCPRedialJitterIsSeeded: the backoff jitter of a sender is a stream
// of its own, a function of the lowest node at each end — the same on
// every run and in every registration or send order, different for every
// (dialer, peer) pair — and not the process-global generator.
func TestTCPRedialJitterIsSeeded(t *testing.T) {
	draws := func(home, to core.NodeID) [4]float64 {
		tr := NewTCPTransport()
		defer func() { _ = tr.Close() }()
		for _, v := range []core.NodeID{home + 1, home} { // registered first, not the lowest
			if _, err := tr.Register(v); err != nil {
				t.Fatal(err)
			}
		}
		const peer = "127.0.0.1:1"
		tr.AddPeer(to+1, peer) // a higher node at the same address does not re-seed
		tr.AddPeer(to, peer)
		tr.mu.Lock()
		s := tr.newSender(peer)
		tr.mu.Unlock()
		var d [4]float64
		for i := range d {
			d[i] = s.jitter.Float64()
		}
		return d
	}
	base := draws(3, 9)
	if again := draws(3, 9); again != base {
		t.Errorf("same dialer and peer drew %v then %v", base, again)
	}
	if other := draws(5, 9); other == base {
		t.Error("two dialers re-finding one peer share a jitter stream")
	}
	if other := draws(3, 8); other == base {
		t.Error("one dialer's senders share a jitter stream")
	}
}

// TestTCPTransportUnreachablePeerDoesNotStall pins the singleflight dial
// fix: Sends toward a dead peer must return immediately (queued or
// backpressured) while Sends to healthy peers proceed — the dial happens
// in the destination's sender goroutine, not under the transport lock.
func TestTCPTransportUnreachablePeerDoesNotStall(t *testing.T) {
	ctx := context.Background()
	tr := NewTCPTransport()
	defer func() { _ = tr.Close() }()
	inbox, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer(1, "127.0.0.1:1") // reserved port: connection refused

	// Drain node 0's inbox as envelopes arrive.
	var arrived atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range inbox {
			arrived.Add(1)
		}
	}()

	// Overfill the dead peer's send queue in one burst (a dial burst takes
	// tens of milliseconds per frame, so the sender cannot keep up): the
	// surplus must come back as ErrBackpressure, at once.
	start := time.Now()
	backpressured := 0
	for i := 0; i < inboxSize*2; i++ {
		switch err := tr.Send(ctx, 1, Envelope{From: 0}); {
		case err == nil:
		case errors.Is(err, ErrBackpressure):
			backpressured++
		default:
			t.Fatalf("send to dead peer failed: %v", err)
		}
	}
	if backpressured < inboxSize/2 {
		t.Fatalf("%d of %d sends to a dead peer backpressured, want >= %d", backpressured, inboxSize*2, inboxSize/2)
	}

	healthy := 0
	for i := 0; i < 32; i++ {
		_ = tr.Send(ctx, 1, Envelope{From: 0}) // dead peer: queued, or dropped on the full queue
		// Healthy sends may backpressure, but must never block or fail
		// otherwise.
		err := tr.Send(ctx, 0, Envelope{From: 1})
		switch {
		case err == nil:
			healthy++
		case errors.Is(err, ErrBackpressure):
		default:
			t.Fatalf("send to healthy local node failed: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sends stalled %v behind a dead peer", elapsed)
	}
	if healthy == 0 {
		t.Fatal("every healthy send backpressured")
	}
	deadline := time.Now().Add(10 * time.Second)
	for arrived.Load() < int64(healthy) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := arrived.Load(); got < int64(healthy) {
		t.Fatalf("only %d/%d local envelopes arrived", got, healthy)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-drained
}

func TestClusterSingleSourceAllMessagesAtOneNode(t *testing.T) {
	g := graph.Star(5)
	const k, r = 6, 4
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(200*time.Microsecond), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := core.NewRand(5)
	field := gf.MustNew(256)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
		if err := c.Seed(0, msgs[i]); err != nil { // all at the hub
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	verifyDecode(t, c, msgs, g.N())
}

// driveRound runs one round of c by hand: c.tick, then every envelope
// waiting in a local inbox goes to c.handle, round-robin in node order,
// until none is left. Over ChanTransport, whose Send is synchronous, that
// is a deterministic in-process cluster — no goroutine, no clock.
func driveRound(ctx context.Context, c *Cluster) {
	c.tick(ctx)
	for handled := true; handled; {
		handled = false
		for _, v := range c.cfg.Local {
			n := c.nodes[v]
			select {
			case env := <-n.inbox:
				c.handle(ctx, n, env)
				handled = true
			default:
			}
		}
	}
}

// hookTransport calls at on every Send before passing it on.
type hookTransport struct {
	Transport
	at func(env Envelope)
}

func (h *hookTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	h.at(env)
	return h.Transport.Send(ctx, to, env)
}

// TestTickIsARound: a tick is the simulator's synchronous round. On a
// two-node complete graph with the one message at node 0, node 1 hears the
// packet in round 1 and may use it from the next round only: after the
// first tick and its deliveries node 1 is still at rank 0, the second tick
// commits it, and node 1 is done in round 1, as in the simulator. Every
// contact sees every node already committed this tick: the ingest sweep
// comes first.
func TestTickIsARound(t *testing.T) {
	ctx := context.Background()
	var c *Cluster
	contacts := 0
	tr := &hookTransport{Transport: NewChanTransport(), at: func(env Envelope) {
		if !env.WantReply {
			return // a reply, not a contact
		}
		contacts++
		st := c.Status()
		if st[0].Ticks != st[1].Ticks {
			t.Errorf("node %d contacted with the ticks at %d and %d: an ingest came after a contact", env.From, st[0].Ticks, st[1].Ticks)
		}
	}}
	defer func() { _ = tr.Close() }()
	log := &doneLog{}
	c, err := NewCluster(tr, graph.Complete(2), 1, WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(0, rlnc.Message{Index: 0}); err != nil {
		t.Fatal(err)
	}
	driveRound(ctx, c)
	if got := c.Rank(1); got != 0 {
		t.Fatalf("rank %d at node 1 after the round that delivered it, want 0", got)
	}
	driveRound(ctx, c)
	if st := c.Status()[1]; !st.Done || st.DoneTick != 1 {
		t.Fatalf("node 1 after two ticks: %+v, want done in round 1", st)
	}
	if got := log.ticks[1]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("observer heard node 1 at %v, want [1]", got)
	}
	if contacts != 4 {
		t.Fatalf("%d contacts in two rounds of two nodes, want 4", contacts)
	}
}

// runToDone runs c to completion within a minute, failing the test on an
// error or a node left behind.
func runToDone(t *testing.T, c *Cluster, want int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if done, err := c.Run(ctx); err != nil || done != want {
		t.Fatalf("run: %d/%d done, %v", done, want, err)
	}
}

// TestRoundsEndByCount: a cluster hosting the whole graph ends each round
// when its last frame lands. Under an hour-long interval a lossless
// cluster can only converge in seconds that way: over channels and over
// TCP, uniform and tree, the ticks taken are max DoneTick + 1, every round
// but the last ended by count, and none on the deadline. A process hosting
// part of the graph cannot count, and does not tick before its clock.
func TestRoundsEndByCount(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 4
	for _, model := range clusterModels() {
		for _, tc := range []struct {
			name string
			tr   func() Transport
		}{
			{"chan", func() Transport { return NewChanTransport() }},
			{"tcp", func() Transport { return NewTCPTransport() }},
		} {
			t.Run(model.name+"/"+tc.name, func(t *testing.T) {
				tr := tc.tr()
				defer func() { _ = tr.Close() }()
				c, err := model.new(tr, g, k, WithPayload(r), WithInterval(time.Hour), WithSeed(17))
				if err != nil {
					t.Fatal(err)
				}
				msgs := seedMessages(t, c, k, r, g.N())
				runToDone(t, c, g.N())
				verifyDecode(t, c, msgs, g.N())
				last := 0
				for _, st := range c.Status() {
					last = max(last, st.DoneTick)
				}
				ticks := c.Status()[0].Ticks
				if ticks != last+1 {
					t.Errorf("%d ticks for a last DoneTick of %d, want %d", ticks, last, last+1)
				}
				if got, want := c.Rounds(), (RoundStats{ByCount: uint64(ticks - 1)}); got != want {
					t.Errorf("round closures %+v, want %+v", got, want)
				}
			})
		}
	}
	t.Run("partial", func(t *testing.T) {
		tr := NewChanTransport()
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithLocalNodes(0, 1, 2), WithInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		seedMessages(t, c, k, r, 3)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		if _, err := c.Run(ctx); err == nil {
			t.Fatal("a third of the graph converged alone")
		}
		for _, st := range c.Status() {
			if st.Ticks != 0 {
				t.Fatalf("node %d ticked %d times before an hour-long clock fired", st.ID, st.Ticks)
			}
		}
		if got := c.Rounds(); got != (RoundStats{}) {
			t.Fatalf("round closures %+v with no tick", got)
		}
	})
}

// TestRoundCountSurvivesLossKillAndServe: what the count cannot see must
// not stop a cluster. Lost frames end their rounds on the deadline (10%
// i.i.d. loss), frames delayed past it land in a later round (jitter of
// three intervals), a node killed mid-round still settles what reaches it
// (under an hour-long interval, so a stalled count would time out), and a
// ControlPlane cluster paces its rounds by the clock once done.
func TestRoundCountSurvivesLossKillAndServe(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 4
	t.Run("loss", func(t *testing.T) {
		tr, err := NewLossyTransport(NewChanTransport(), 0.1, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(time.Millisecond), WithSeed(18))
		if err != nil {
			t.Fatal(err)
		}
		msgs := seedMessages(t, c, k, r, g.N())
		runToDone(t, c, g.N())
		verifyDecode(t, c, msgs, g.N())
		if st := c.Rounds(); st.ByDeadline == 0 || st.PresumedLost == 0 {
			t.Errorf("round closures %+v under 10%% loss: no round ended on the deadline", st)
		}
	})
	t.Run("jitter", func(t *testing.T) {
		tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{Jitter: 3 * time.Millisecond, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(time.Millisecond), WithSeed(19))
		if err != nil {
			t.Fatal(err)
		}
		msgs := seedMessages(t, c, k, r, g.N())
		runToDone(t, c, g.N())
		verifyDecode(t, c, msgs, g.N())
	})
	t.Run("kill", func(t *testing.T) {
		const victim = core.NodeID(8) // holds nothing unique, as in TestClusterChurn
		var c *Cluster
		var sends atomic.Int64
		tr := &hookTransport{Transport: NewChanTransport(), at: func(Envelope) {
			if sends.Add(1) == int64(3*g.N()) { // in the second round's traffic
				_ = c.Kill(victim)
			}
		}}
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(time.Hour), WithSeed(12))
		if err != nil {
			t.Fatal(err)
		}
		msgs := seedMessages(t, c, k, r, k)
		runToDone(t, c, g.N()-1)
		for v := range g.N() - 1 {
			verifyNode(t, c, core.NodeID(v), msgs)
		}
		if st := c.Rounds(); st.ByDeadline != 0 {
			t.Errorf("round closures %+v: a lossless round waited for the hour-long deadline", st)
		}
	})
	t.Run("serve", func(t *testing.T) {
		const interval = 5 * time.Millisecond
		tr := NewChanTransport()
		defer func() { _ = tr.Close() }()
		c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(interval), WithControlPlane(), WithSeed(20))
		if err != nil {
			t.Fatal(err)
		}
		seedMessages(t, c, k, r, g.N())
		c.Start()
		ctx, stop := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() { _, err := c.Run(ctx); res <- err }()
		waitFor(t, "every node to complete", func() bool { return allDone(c) })
		t0, from := c.Status()[0].Ticks, time.Now()
		time.Sleep(20 * interval) // the window measured
		t1, window := c.Status()[0].Ticks, time.Since(from)
		stop()
		if err := <-res; err != nil {
			t.Fatalf("post-completion cancel was not a clean drain: %v", err)
		}
		if most := int(window/interval) + 1; t1-t0 > most {
			t.Fatalf("%d ticks in %v after completion, want at most %d: the rounds spin", t1-t0, window, most)
		}
	})
}

// TestClusterChurn kills a node between two rounds (one that holds no
// unique information): it does not tick, does not complete and does not
// answer, the survivors all decode — gossip's redundancy makes single-node
// crashes harmless — and Run stops waiting for it.
func TestClusterChurn(t *testing.T) {
	g := graph.Grid(3, 3) // killing corner node 8 keeps the rest connected
	const k, r, victim = 4, 4, core.NodeID(8)
	ctx := context.Background()
	killed, answered := false, 0
	tr := &hookTransport{Transport: NewChanTransport(), at: func(env Envelope) {
		if killed && env.From == victim {
			answered++
		}
	}}
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, k, WithPayload(r), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, k, r, k) // seeds at nodes 0..3, far from node 8
	driveRound(ctx, c)
	driveRound(ctx, c)
	killed = true
	c.Kill(victim)
	c.Kill(victim) // redundant kill must be harmless
	before := c.Status()[victim]
	for rounds := 0; ; rounds++ {
		survivors := 0
		for _, st := range c.Status() {
			if st.Done {
				survivors++
			}
		}
		if survivors == g.N()-1 {
			break
		}
		if rounds == 500 {
			t.Fatalf("%d of %d survivors done after %d rounds", survivors, g.N()-1, rounds)
		}
		driveRound(ctx, c)
	}
	if after := c.Status()[victim]; after != before || after.Done {
		t.Fatalf("killed node went on: %+v, then %+v", before, after)
	}
	if answered != 0 {
		t.Fatalf("killed node sent %d envelopes", answered)
	}
	runCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if done, err := c.Run(runCtx); err != nil || done != g.N()-1 {
		t.Fatalf("run: %d done, %v; want %d survivors", done, err, g.N()-1)
	}
	for v := range g.N() - 1 {
		verifyNode(t, c, core.NodeID(v), msgs)
	}
}

// TestClusterReplaysFromSeed: driven by hand, a cluster is a function of
// its seed — two runs give the same rank vector round by round, on a
// uniform and a tree cluster.
func TestClusterReplaysFromSeed(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 2
	ctx := context.Background()
	trajectory := func(model clusterModel) [][]int {
		tr := NewChanTransport()
		defer func() { _ = tr.Close() }()
		c, err := model.new(tr, g, k, WithPayload(r), WithSeed(31))
		if err != nil {
			t.Fatal(err)
		}
		seedMessages(t, c, k, r, g.N())
		var ranks [][]int
		for !allDone(c) {
			if len(ranks) == 500 {
				t.Fatalf("%s: not done after %d rounds", model.name, len(ranks))
			}
			driveRound(ctx, c)
			row := make([]int, 0, g.N())
			for _, st := range c.Status() {
				row = append(row, st.Rank)
			}
			ranks = append(ranks, row)
		}
		return ranks
	}
	for _, model := range clusterModels() {
		if a, b := trajectory(model), trajectory(model); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed, two trajectories:\n%v\n%v", model.name, a, b)
		}
	}
}

// TestClusterGF2BitMode runs a payload-carrying GF(2) cluster end to end:
// the codecs use the packed bitset backend internally while the wire
// format still carries one coefficient per symbol, so the Adapt /
// ExpandCoeffs boundary is exercised in both directions (emit → wire →
// receive), including full decode at every node.
func TestClusterGF2BitMode(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, 5, WithPayload(8), WithField(gf.MustNew(2)),
		WithInterval(200*time.Microsecond), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessagesField(t, c, gf.MustNew(2), 5, 8, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
}

func seedMessagesField(t *testing.T, c *Cluster, field gf.Field, k, r, n int) []rlnc.Message {
	t.Helper()
	rng := core.NewRand(99)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
		if err := c.Seed(core.NodeID(i%n), msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return msgs
}

// TestClusterGF16SlicedMode runs a payload-carrying GF(16) cluster end to
// end: the codecs use the bit-sliced backend internally while the wire
// format still carries one coefficient per symbol, so the Adapt /
// ExpandCoeffs / ExpandPayload boundary is exercised in both directions
// for a sub-byte symbol width, including full decode at every node. The
// decoders are built inside NewCluster, on the scalar tier: that is
// where GF(16) selects the sliced backend (a vector-tier node stores the
// wire form itself), and the layout is fixed at construction.
func TestClusterGF16SlicedMode(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	host := gf.ActiveTier()
	if err := gf.SetTier(gf.TierScalar); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(tr, g, 5, WithPayload(8), WithField(gf.MustNew(16)),
		WithInterval(200*time.Microsecond), WithSeed(11))
	if rerr := gf.SetTier(host); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessagesField(t, c, gf.MustNew(16), 5, 8, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d nodes", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
}

// TestClusterScreensGenerationTag: a whole-k node is a one-generation
// decoder whose only valid tag is 0, so a frame tagged with any other
// generation — the tag is wire input — is dropped at the next tick without
// panicking and leaves the rank unchanged, on a uniform and a tree cluster
// alike. The same coefficients under tag 0 are accepted.
func TestClusterScreensGenerationTag(t *testing.T) {
	g := graph.Complete(2)
	frame := func(gen int) Envelope {
		return Envelope{Kind: EnvelopePacket, From: 0, Gen: gen,
			Coeffs: []gf.Elem{0, 1, 0}, Payload: []byte{9, 9}}
	}
	ctx := context.Background()
	for _, model := range clusterModels() {
		tr := NewChanTransport()
		defer func() { _ = tr.Close() }()
		c, err := model.new(tr, g, 3, WithPayload(2))
		if err != nil {
			t.Fatal(err)
		}
		n := c.nodes[1]
		for _, step := range []struct{ gen, wantRank int }{{7, 0}, {-1, 0}, {0, 1}} {
			c.handle(ctx, n, frame(step.gen))
			c.tick(ctx)
			if got := c.Rank(1); got != step.wantRank {
				t.Fatalf("%s: after a frame tagged gen=%d rank = %d, want %d", model.name, step.gen, got, step.wantRank)
			}
		}
	}
}
