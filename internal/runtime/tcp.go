package runtime

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/wire"
)

// TCPTransport's connection management. Each destination's send queue
// holds inboxSize frames; a full queue drops the frame with
// ErrBackpressure, so senders are never stalled by one slow peer.
const (
	// tcpDialAttempts is how many times one frame's dial burst retries an
	// unreachable peer before dropping the frame. Later frames start fresh
	// bursts, so a restarting peer is re-found.
	tcpDialAttempts = 5
	// tcpDialBackoff is the first retry delay; it doubles per attempt with
	// ±50% jitter.
	tcpDialBackoff = 5 * time.Millisecond
	// tcpSendTimeout bounds each dial and each frame write.
	tcpSendTimeout = 2 * time.Second
)

// TCPTransport carries wire-framed envelopes over TCP. Each registered
// node gets its own listener (inbound frames are demuxed by the frame's
// destination field, so one listener can also serve a whole co-located
// node set); each destination gets one persistent connection owned by a
// dedicated sender goroutine — dialing happens there, never under the
// transport mutex, so one unreachable peer cannot stall other senders
// (and concurrent Sends to the same peer coalesce onto the one dial, the
// singleflight this layer needs).
type TCPTransport struct {
	router // the routing table; its mu guards every map below too

	listeners map[core.NodeID]net.Listener
	inbound   map[net.Conn]struct{}
	senders   map[core.NodeID]*tcpSender
	home      core.NodeID // first node registered here (NilNode: none yet); seeds the redial jitter

	stop   chan struct{}
	wg     sync.WaitGroup // accept + read loops
	sendWg sync.WaitGroup // sender loops
}

type tcpSender struct {
	to    core.NodeID
	queue chan Envelope
	// jitter is the sender goroutine's own stream for redial backoff,
	// seeded from (the transport's home node, to): redial timing is a
	// function of who dials whom, not of a process-global generator, and
	// two processes re-finding one restarted peer still draw apart.
	jitter *rand.Rand
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport returns a TCP transport; nodes listen on loopback ports
// assigned by the kernel unless SetPeers declared an address for them.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		router:    newRouter(),
		listeners: make(map[core.NodeID]net.Listener),
		inbound:   make(map[net.Conn]struct{}),
		senders:   make(map[core.NodeID]*tcpSender),
		home:      core.NilNode,
		stop:      make(chan struct{}),
	}
}

// Register implements Transport: it starts a listener for the node and an
// accept loop funneling decoded frames into local inboxes.
func (t *TCPTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	return t.register(id, func(bind string) (string, error) {
		ln, err := net.Listen("tcp", bind)
		if err != nil {
			return "", err
		}
		t.listeners[id] = ln
		if t.home == core.NilNode {
			t.home = id
		}
		t.wg.Add(1)
		go t.acceptLoop(ln)
		return ln.Addr().String(), nil
	})
}

func (t *TCPTransport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes inbound frames and demuxes them onto local inboxes by
// the frame's destination field. A malformed frame (bad magic, version,
// lengths — anything the wire screens catch) closes the connection: a
// corrupted or hostile stream costs its sender a redial, never a crash.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	r := wire.NewReader(conn)
	for {
		to, env, err := r.ReadFrame()
		if err != nil || !t.receive(to, env) {
			return
		}
	}
}

// Send implements Transport: it enqueues the frame on the destination's
// sender goroutine, creating it on first use. A full queue drops the
// frame with ErrBackpressure — the caller is never blocked on a slow or
// unreachable peer.
func (t *TCPTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTransportClosed
	}
	s, ok := t.senders[to]
	if !ok {
		if _, ok := t.route(to); !ok {
			t.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrUnknownNode, to)
		}
		s = t.newSender(to)
		t.senders[to] = s
		t.sendWg.Add(1)
		go t.runSender(s)
	}
	t.mu.Unlock()

	select {
	case s.queue <- env:
		return nil
	default:
		t.stats.dropped(to)
		return fmt.Errorf("%w: send queue for node %d full", ErrBackpressure, to)
	}
}

// newSender builds the sender for one destination; t.mu is held.
func (t *TCPTransport) newSender(to core.NodeID) *tcpSender {
	return &tcpSender{
		to:     to,
		queue:  make(chan Envelope, inboxSize),
		jitter: core.NewRand(core.SplitSeed(uint64(t.home), uint64(to))),
	}
}

// runSender owns one destination's connection: it drains the send queue,
// (re)dialing with exponential backoff + jitter as needed and writing
// each frame under a deadline. Frames that outlive the dial burst or hit
// a write error are dropped and counted — coded gossip recovers through
// redundancy, so a sender never retries a stale frame.
func (t *TCPTransport) runSender(s *tcpSender) {
	defer t.sendWg.Done()
	var conn net.Conn
	var w *wire.Writer
	dialedOnce := false
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		var env Envelope
		select {
		case <-t.stop:
			return
		case env = <-s.queue:
		}
		if conn == nil {
			conn = t.dialBurst(s, &dialedOnce)
			if conn == nil {
				t.stats.dropped(s.to)
				continue
			}
			w = wire.NewWriter(conn)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(tcpSendTimeout))
		if err := w.WriteFrame(s.to, &env); err != nil {
			_ = conn.Close()
			conn, w = nil, nil
			t.stats.dropped(s.to)
			continue
		}
		t.stats.sent(s.to)
	}
}

// dialBurst tries tcpDialAttempts dials with exponential backoff + jitter,
// returning nil if the peer stayed unreachable. Every attempt after the
// destination's first-ever dial counts as a redial.
func (t *TCPTransport) dialBurst(s *tcpSender, dialedOnce *bool) net.Conn {
	to, backoff := s.to, tcpDialBackoff
	for attempt := 0; attempt < tcpDialAttempts; attempt++ {
		t.mu.Lock()
		addr, ok := t.route(to)
		t.mu.Unlock()
		if !ok {
			return nil
		}
		if *dialedOnce {
			t.stats.redial(to)
		}
		*dialedOnce = true
		conn, err := net.DialTimeout("tcp", addr, tcpSendTimeout)
		if err == nil {
			return conn
		}
		// Jittered exponential backoff: sleep in [0.5, 1.5)·backoff, then
		// double. Jitter decorrelates the redial storms of many senders
		// re-finding one restarted peer.
		sleep := time.Duration((0.5 + s.jitter.Float64()) * float64(backoff))
		select {
		case <-t.stop:
			return nil
		case <-time.After(sleep):
		}
		backoff *= 2
	}
	return nil
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if !t.shut() {
		t.mu.Unlock()
		return nil
	}
	close(t.stop)
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	for conn := range t.inbound {
		_ = conn.Close()
	}
	t.mu.Unlock()

	t.sendWg.Wait()
	t.wg.Wait()
	t.closeBoxes()
	return nil
}
