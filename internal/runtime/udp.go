package runtime

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/wire"
)

// maxDatagram is the largest frame UDPTransport will put in one datagram
// (IPv4 UDP payload ceiling, minus slack for headers).
const maxDatagram = 65000

// UDPTransport carries one wire frame per UDP datagram. One packet socket,
// bound by the first Register, reads every local node's frames and sends
// all of them. UDP's own loss model stacks naturally under injected loss
// (ChaosConfig.DropRate) — a dropped datagram is indistinguishable from
// an injected drop, which is exactly the deployment regime the coded
// protocol is built for.
type UDPTransport struct {
	router // the routing table; its mu guards the fields below too

	pc       net.PacketConn          // the one socket (nil before the first Register)
	resolved map[string]*net.UDPAddr // route → its resolution
	wg       sync.WaitGroup

	// sendMu serializes Sends over frame. It costs them no concurrency:
	// the socket serializes its writes anyway (BenchmarkUDPSendParallel).
	sendMu sync.Mutex
	frame  []byte // the datagram being sent, reused by every Send
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport returns a UDP transport; its first Register binds a
// loopback port the kernel assigns, unless SetPeers declared an address
// for that node. The error is always nil.
func NewUDPTransport() (*UDPTransport, error) {
	return &UDPTransport{router: newRouter(), resolved: make(map[string]*net.UDPAddr)}, nil
}

// Register implements Transport: the first call binds the packet socket
// and starts the read loop decoding one frame per datagram. Malformed
// datagrams are screened and counted, never fatal.
func (t *UDPTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	return t.register(id, func(bind string) (string, error) {
		pc, err := net.ListenPacket("udp", bind)
		if err != nil {
			return "", err
		}
		t.pc = pc
		t.wg.Add(1)
		go t.readLoop(pc)
		return pc.LocalAddr().String(), nil
	})
}

func (t *UDPTransport) readLoop(pc net.PacketConn) {
	defer t.wg.Done()
	buf := make([]byte, maxDatagram+64)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		env := spareEnvelope()
		to, _, err := wire.DecodeFrameInto(buf[:n], &env)
		if err != nil {
			release(&env)
			continue // screened: torn or hostile datagram
		}
		if !t.receive(to, env) {
			return
		}
	}
}

// resolve maps a destination to the socket and its cached UDP address.
func (t *UDPTransport) resolve(to core.NodeID) (net.PacketConn, *net.UDPAddr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil, ErrTransportClosed
	}
	addr, ok := t.route(to)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if t.pc == nil {
		return nil, nil, fmt.Errorf("runtime: udp send to node %d: no socket before the first Register", to)
	}
	if ua, ok := t.resolved[addr]; ok {
		return t.pc, ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: resolve node %d (%s): %w", to, addr, err)
	}
	t.resolved[addr] = ua
	return t.pc, ua, nil
}

// Send implements Transport: one frame, one datagram, fire-and-forget,
// encoded into the transport's one reused datagram buffer. A frame it
// refuses — too big for one datagram, or unencodable — is counted as
// dropped, like one the socket fails to write.
func (t *UDPTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pc, ua, err := t.resolve(to)
	if err != nil {
		return err
	}
	if n := wire.FrameLen(&env); n > maxDatagram {
		t.stats.dropped(to)
		return fmt.Errorf("runtime: frame of %d bytes exceeds one datagram (%d)", n, maxDatagram)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	frame, err := wire.AppendFrame(t.frame[:0], to, &env)
	if err != nil {
		t.stats.dropped(to)
		return err
	}
	t.frame = frame
	_ = pc.SetWriteDeadline(time.Now().Add(udpSendTimeout))
	if _, err := pc.WriteTo(frame, ua); err != nil {
		t.stats.dropped(to)
		return fmt.Errorf("runtime: udp send to node %d: %w", to, err)
	}
	t.stats.sent(to)
	return nil
}

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if !t.shut() {
		t.mu.Unlock()
		return nil
	}
	if t.pc != nil {
		_ = t.pc.Close()
	}
	t.mu.Unlock()

	t.wg.Wait()
	t.closeBoxes()
	return nil
}
