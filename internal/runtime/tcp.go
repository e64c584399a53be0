package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/wire"
)

// TCPTransport's connection management. Each peer address holds at most
// inboxSize frames, pending or being written; a Send past that drops the
// frame with ErrBackpressure, so senders are never stalled by one slow
// peer.
const (
	// tcpDialAttempts is how many times one frame's dial burst retries an
	// unreachable peer before dropping the frame. Later frames start fresh
	// bursts, so a restarting peer is re-found.
	tcpDialAttempts = 5
	// tcpDialBackoff is the first retry delay; it doubles per attempt with
	// ±50% jitter.
	tcpDialBackoff = 5 * time.Millisecond
	// tcpSendTimeout bounds each dial and each write.
	tcpSendTimeout = 2 * time.Second
	// udpSendTimeout bounds each datagram write of UDPTransport.
	udpSendTimeout = 2 * time.Second
)

// TCPTransport carries wire-framed envelopes over TCP: one listener, bound
// by the first Register, whose inbound frames are read through one buffer
// per connection and demuxed by destination field, and one persistent
// connection per peer address, however many nodes live there, owned by a
// sender goroutine. Send encodes its frame into the peer's pending buffer;
// the sender writes everything pending with one Write, so the frames sent
// while a write is under way go out together in the next (group commit).
// Dialing happens in the sender, never under the transport mutex, so one
// unreachable peer cannot stall other senders (and concurrent Sends to one
// peer coalesce onto the one dial, the singleflight this layer needs).
type TCPTransport struct {
	router // the routing table; its mu guards every field below too

	ln      net.Listener // bound by the first Register
	inbound map[net.Conn]struct{}
	senders map[string]*tcpSender // by peer address

	stop chan struct{}
	wg   sync.WaitGroup // accept, read and sender loops
}

type tcpSender struct {
	addr string
	// jitter is the sender's own stream for redial backoff, seeded from
	// the lowest node at each end: a function of who dials whom, not of
	// send order, so two processes re-finding one peer draw apart.
	jitter *rand.Rand
	wake   chan struct{} // one slot: frames are pending

	mu      sync.Mutex
	pending []byte        // frames encoded since the last write, back to back
	tos     []core.NodeID // each pending frame's node, in order
	writing int           // frames the sender took and has not yet written or dropped
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport returns a TCP transport; it listens on a kernel-assigned
// loopback port unless SetPeers declared its first registered node.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		router:  newRouter(),
		inbound: make(map[net.Conn]struct{}),
		senders: make(map[string]*tcpSender),
		stop:    make(chan struct{}),
	}
}

// Register implements Transport: the first call starts the listener and
// the accept loop funneling decoded frames into local inboxes.
func (t *TCPTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	return t.register(id, func(bind string) (string, error) {
		ln, err := net.Listen("tcp", bind)
		if err != nil {
			return "", err
		}
		t.ln = ln
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

// readLoop decodes inbound frames into spare arrays and demuxes them onto
// local inboxes by the frame's destination field. A malformed frame (bad
// magic, version, lengths — anything the wire screens catch) closes the
// connection: a corrupted or hostile stream costs its sender a redial,
// never a crash.
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
		env := spareEnvelope()
		to, err := r.ReadFrameInto(&env)
		if err != nil {
			release(&env)
			return
		}
		if !t.receive(to, env) {
			return
		}
	}
}

// Send implements Transport: it encodes the frame into the pending buffer
// of the destination's current address (its sender created on first use)
// and keeps nothing of env. A peer already holding inboxSize frames drops
// the frame with ErrBackpressure — the caller is never blocked on a slow
// or unreachable peer — and an unencodable frame is a counted drop.
func (t *TCPTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTransportClosed
	}
	addr, ok := t.route(to)
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	s, ok := t.senders[addr]
	if !ok {
		s = t.newSender(addr)
		t.senders[addr] = s
		t.wg.Add(1)
		go t.runSender(s)
	}
	t.mu.Unlock()

	s.mu.Lock()
	full := len(s.tos)+s.writing >= inboxSize
	var err error
	if !full {
		if size := wire.FrameLen(&env); len(s.pending)+size > cap(s.pending) && size <= wire.MaxFrame {
			// Doubling: append's 1.25× step for a large slice would copy
			// a burst of frames over and over as it grows. (AppendFrame
			// refuses a frame above MaxFrame; nothing is grown for it.)
			s.pending = append(make([]byte, 0, 2*(len(s.pending)+size)), s.pending...)
		}
		if s.pending, err = wire.AppendFrame(s.pending, to, &env); err == nil {
			s.tos = append(s.tos, to)
		}
	}
	s.mu.Unlock()
	if full {
		err = fmt.Errorf("%w: send queue for %s full", ErrBackpressure, addr)
	}
	if err != nil {
		t.stats.dropped(to)
		return err
	}
	select {
	case s.wake <- struct{}{}:
	default: // already awake
	}
	return nil
}

// newSender builds the sender for one peer address; t.mu is held.
func (t *TCPTransport) newSender(addr string) *tcpSender {
	return &tcpSender{
		addr:   addr,
		wake:   make(chan struct{}, 1),
		jitter: core.NewRand(core.SplitSeed(uint64(t.lowest(t.addr)), uint64(t.lowest(addr)))),
	}
}

// runSender owns one peer address's connection: each time it wakes it
// takes every pending frame, handing the Sends its spare buffer to fill
// meanwhile, and writes them with one Write under a deadline, (re)dialing
// with exponential backoff + jitter as needed. Frames that outlive the
// dial burst, or that a failed write did not get out whole, are dropped
// and counted — coded gossip recovers through redundancy, so a sender
// never retries a stale frame.
func (t *TCPTransport) runSender(s *tcpSender) {
	defer t.wg.Done()
	var conn net.Conn
	var spare []byte
	var spareTos []core.NodeID
	dialedOnce := false
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		select {
		case <-t.stop:
			return
		case <-s.wake:
		}
		s.mu.Lock()
		batch, tos := s.pending, s.tos
		s.pending, s.tos, s.writing = spare[:0], spareTos[:0], len(tos)
		s.mu.Unlock()
		spare, spareTos = batch, tos
		if len(tos) == 0 {
			continue
		}
		written := 0 // frames wholly written
		if conn == nil {
			conn = t.dialBurst(s, tos[0], &dialedOnce)
		}
		if conn != nil {
			_ = conn.SetWriteDeadline(time.Now().Add(tcpSendTimeout))
			n, err := conn.Write(batch)
			if err != nil {
				_ = conn.Close()
				conn = nil
			}
			written = framesIn(batch, n)
		}
		for i, to := range tos {
			if i < written {
				t.stats.sent(to)
			} else {
				t.stats.dropped(to)
			}
		}
		s.mu.Lock()
		s.writing = 0
		s.mu.Unlock()
	}
}

// framesIn returns how many of batch's frames end within its first n
// bytes: the frames a Write that stopped after n bytes delivered whole.
func framesIn(batch []byte, n int) (frames int) {
	for off := 0; off+4 <= len(batch); frames++ {
		off += 4 + int(binary.BigEndian.Uint32(batch[off:]))
		if off > n {
			break
		}
	}
	return frames
}

// dialBurst tries tcpDialAttempts dials with exponential backoff + jitter,
// returning nil if the peer stayed unreachable. Every attempt after the
// sender's first-ever dial counts as a redial of to, whose frames wait.
func (t *TCPTransport) dialBurst(s *tcpSender, to core.NodeID, dialedOnce *bool) net.Conn {
	backoff := tcpDialBackoff
	for attempt := 0; attempt < tcpDialAttempts; attempt++ {
		if *dialedOnce {
			t.stats.redial(to)
		}
		*dialedOnce = true
		conn, err := net.DialTimeout("tcp", s.addr, tcpSendTimeout)
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
	if t.ln != nil {
		_ = t.ln.Close()
	}
	for conn := range t.inbound {
		_ = conn.Close()
	}
	t.mu.Unlock()

	t.wg.Wait()
	t.closeBoxes()
	return nil
}
