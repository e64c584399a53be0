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

// UDPTransport carries one wire frame per UDP datagram. Each registered
// node gets its own packet socket; all Sends share one unbound send
// socket. UDP's own loss model stacks naturally under injected loss
// (ChaosConfig.DropRate) — a dropped datagram is indistinguishable from
// an injected drop, which is exactly the deployment regime the coded
// protocol is built for.
type UDPTransport struct {
	router // the routing table; its mu guards the maps below too

	resolved map[core.NodeID]udpRoute
	conns    map[core.NodeID]net.PacketConn

	send net.PacketConn
	wg   sync.WaitGroup
}

// udpRoute caches one destination's resolved address beside the route it
// was resolved from, so a SetPeers that moves the node is noticed.
type udpRoute struct {
	addr string
	ua   *net.UDPAddr
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport returns a UDP transport; nodes listen on loopback ports
// assigned by the kernel unless SetPeers declared an address for them.
func NewUDPTransport() (*UDPTransport, error) {
	send, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("runtime: udp send socket: %w", err)
	}
	return &UDPTransport{
		router:   newRouter(),
		resolved: make(map[core.NodeID]udpRoute),
		conns:    make(map[core.NodeID]net.PacketConn),
		send:     send,
	}, nil
}

// Register implements Transport: it binds the node's packet socket and
// starts a read loop decoding one frame per datagram. Malformed datagrams
// are screened and counted, never fatal.
func (t *UDPTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	return t.register(id, func(bind string) (string, error) {
		pc, err := net.ListenPacket("udp", bind)
		if err != nil {
			return "", err
		}
		t.conns[id] = pc
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
		to, env, _, err := wire.DecodeFrame(buf[:n])
		if err != nil {
			continue // screened: torn or hostile datagram
		}
		if !t.receive(to, env) {
			return
		}
	}
}

// resolve maps a destination to a UDP address, caching the resolution.
func (t *UDPTransport) resolve(to core.NodeID) (*net.UDPAddr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrTransportClosed
	}
	addr, ok := t.route(to)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if c, ok := t.resolved[to]; ok && c.addr == addr {
		return c.ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("runtime: resolve node %d (%s): %w", to, addr, err)
	}
	t.resolved[to] = udpRoute{addr, ua}
	return ua, nil
}

// Send implements Transport: one frame, one datagram, fire-and-forget. A
// frame it refuses — too big for one datagram, or unencodable — is
// counted as dropped, like one the socket fails to write.
func (t *UDPTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ua, err := t.resolve(to)
	if err != nil {
		return err
	}
	if n := wire.FrameLen(&env); n > maxDatagram {
		t.stats.dropped(to)
		return fmt.Errorf("runtime: frame of %d bytes exceeds one datagram (%d)", n, maxDatagram)
	}
	frame, err := wire.AppendFrame(nil, to, &env)
	if err != nil {
		t.stats.dropped(to)
		return err
	}
	_ = t.send.SetWriteDeadline(time.Now().Add(udpSendTimeout))
	if _, err := t.send.WriteTo(frame, ua); err != nil {
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
	for _, pc := range t.conns {
		_ = pc.Close()
	}
	_ = t.send.Close()
	t.mu.Unlock()

	t.wg.Wait()
	t.closeBoxes()
	return nil
}
