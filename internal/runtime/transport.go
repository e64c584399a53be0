// Package runtime deploys the gossip protocols as real concurrent
// processes communicating through a pluggable Transport. This is the
// "production" face of the library — the simulator (internal/sim)
// measures round complexity deterministically, while this package runs
// the same RLNC exchange over channels or real sockets, with payloads,
// decoding, and graceful shutdown.
//
// A Cluster has one tick loop, and each tick is the simulator's
// synchronous round: first every live local node ingests what was
// delivered to it since the last tick, then every live node contacts one
// partner. Each node's goroutine only serves its inbox — it stages packets
// for the next tick and answers EXCHANGE requests from the state the tick
// committed — so a node's DoneTick is a round in the simulator's units. A
// cluster hosting the whole graph ends a round when its last frame lands;
// a process hosting part of it ends rounds on its clock.
//
// Three transports ship with the package, over one routing table:
// ChanTransport (in-process, used by examples and tests), TCPTransport and
// UDPTransport (wire-framed frames over loopback or a real network, see
// internal/wire). ChaosTransport wraps any of them with fault injection:
// i.i.d. drops, latency, partitions and frame corruption.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/wire"
)

// Envelope is the wire message: one coded packet plus exchange metadata.
// It is defined in internal/wire — the codec package owns the layout —
// and aliased here so transport users need not import wire.
type Envelope = wire.Envelope

// EnvelopeKind distinguishes wire message types.
type EnvelopeKind = wire.Kind

const (
	// EnvelopePacket carries one RLNC coded packet (the default).
	EnvelopePacket = wire.KindPacket
	// EnvelopeAnnounce is a spanning-tree broadcast message: "I am part of
	// the tree; adopt me as your parent if you have none" (distributed
	// TAG's Phase 1).
	EnvelopeAnnounce = wire.KindAnnounce
)

// Typed transport errors. Wrapped with context at return sites; match
// with errors.Is.
var (
	// ErrTransportClosed reports an operation on a closed transport.
	ErrTransportClosed = errors.New("runtime: transport closed")
	// ErrUnknownNode reports a Send to a node the transport cannot route
	// to (not registered and no declared peer address).
	ErrUnknownNode = errors.New("runtime: unknown node")
	// ErrBackpressure reports an envelope dropped because a bounded inbox
	// or send queue was full. Gossip is loss-tolerant: callers on the hot
	// path treat it as a counted drop, not a failure.
	ErrBackpressure = errors.New("runtime: dropped on backpressure")
)

// Transport moves envelopes between nodes. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Register allocates the inbox for node id. It must be called once per
	// node before Send targets it.
	Register(id core.NodeID) (<-chan Envelope, error)
	// Send delivers env to node to. Delivery may be asynchronous and may
	// be dropped under backpressure (reported as ErrBackpressure after
	// counting the drop); Send must not block past ctx. Send keeps
	// nothing of env once it returns: it encodes or copies what it
	// delivers, so the caller may overwrite env's arrays at once. An
	// envelope read from an inbox owns its arrays; the Cluster hands them
	// back to the package's free list once it has ingested them.
	Send(ctx context.Context, to core.NodeID, env Envelope) error
	// Stats snapshots the transport's send/drop/redial counters.
	Stats() TransportStats
	// Close releases all resources; subsequent Sends fail.
	Close() error
}

// NodeStats counts one destination's traffic as seen by a sender.
type NodeStats struct {
	// Sent counts envelopes handed to the underlying medium.
	Sent uint64
	// Dropped counts envelopes discarded before delivery (full inbox or
	// send queue, injected loss, undialable peer).
	Dropped uint64
	// Redials counts connection re-establishment attempts after the
	// first dial (broken connections and backoff retries).
	Redials uint64
}

// TransportStats is a point-in-time snapshot of a transport's counters,
// totalled and broken down per destination node.
type TransportStats struct {
	Total   NodeStats
	PerNode map[core.NodeID]NodeStats
}

// counters is the shared per-destination counter set behind every
// Transport.Stats implementation.
type counters struct {
	mu  sync.Mutex
	per map[core.NodeID]*NodeStats
}

func newCounters() *counters {
	return &counters{per: make(map[core.NodeID]*NodeStats)}
}

func (c *counters) node(id core.NodeID) *NodeStats {
	ns, ok := c.per[id]
	if !ok {
		ns = &NodeStats{}
		c.per[id] = ns
	}
	return ns
}

func (c *counters) sent(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Sent++
	c.mu.Unlock()
}

func (c *counters) dropped(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Dropped++
	c.mu.Unlock()
}

func (c *counters) redial(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Redials++
	c.mu.Unlock()
}

func (c *counters) snapshot() TransportStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := TransportStats{PerNode: make(map[core.NodeID]NodeStats, len(c.per))}
	for id, ns := range c.per {
		s.PerNode[id] = *ns
		s.Total.Sent += ns.Sent
		s.Total.Dropped += ns.Dropped
		s.Total.Redials += ns.Redials
	}
	return s
}

// inboxSize buffers bursts without unbounded growth; gossip tolerates drops
// but we prefer backpressure-free small buffers.
const inboxSize = 256

// A received envelope's arrays come from a bounded free list: a socket
// read loop decodes into them, ChanTransport.Send copies into them, and
// the Cluster hands them back once it has ingested the envelope (every
// decoder copies a row it stores). Channels, not sync.Pool, so what the
// list holds does not depend on when the collector runs. It keeps an
// inbox's worth of arrays of each kind, none above spareMax bytes, so it
// never holds more than 32 MiB.
var spares = struct {
	coeffs   chan []gf.Elem
	payloads chan []byte
}{make(chan []gf.Elem, inboxSize), make(chan []byte, inboxSize)}

const spareMax = 64 << 10

// poisonSpares makes release fill every array it hands back with 0xA5, so
// that a reader of an array after its release reads junk (a test hook).
var poisonSpares atomic.Bool

// spareEnvelope returns an envelope holding spare arrays, nil ones when
// the list is empty, for a decode or a copy to fill.
func spareEnvelope() Envelope {
	var env Envelope
	select {
	case env.Coeffs = <-spares.coeffs:
	default:
	}
	select {
	case env.Payload = <-spares.payloads:
	default:
	}
	return env
}

// release hands env's arrays back to the free list; env keeps neither.
func release(env *Envelope) {
	giveBack(spares.coeffs, env.Coeffs)
	giveBack(spares.payloads, env.Payload)
	env.Coeffs, env.Payload = nil, nil
}

// giveBack puts one array on list, unless it is empty, too large to keep
// or the list is full.
func giveBack[T ~byte](list chan []T, s []T) {
	if cap(s) == 0 || cap(s) > spareMax {
		return
	}
	s = s[:cap(s)]
	if poisonSpares.Load() {
		for i := range s {
			s[i] = 0xA5
		}
	}
	select {
	case list <- s[:0]:
	default: // full: the collector takes it
	}
}

// router is the routing table under every transport: where each node
// lives (a declared peer address, or the transport's one bound address:
// every frame names its node, so one socket serves all local nodes) and
// which inbox serves each local node. ChanTransport, TCPTransport and
// UDPTransport embed it, so the three share one SetPeers/AddPeer/Addr, one
// bind-address rule and one delivery path, and mu is the transport's own
// mutex: a socket transport keeps its socket and senders under it too.
type router struct {
	mu     sync.Mutex
	peers  map[core.NodeID]string // declared node → address routes
	bind   string                 // what the first socket Register asked to bind
	addr   string                 // what it bound ("" before it, and in-process)
	boxes  map[core.NodeID]chan Envelope
	closed bool
	stats  *counters
}

func newRouter() router {
	return router{
		peers: make(map[core.NodeID]string),
		boxes: make(map[core.NodeID]chan Envelope),
		stats: newCounters(),
	}
}

// SetPeers declares node → address routes: Sends to an unregistered node
// go to the declared address (multi-process clusters), and the first local
// Register of a declared node binds that address instead of an ephemeral
// loopback port.
func (r *router) SetPeers(peers map[core.NodeID]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, addr := range peers {
		r.peers[id] = addr
	}
}

// AddPeer declares a single node → address route.
func (r *router) AddPeer(id core.NodeID, addr string) {
	r.SetPeers(map[core.NodeID]string{id: addr})
}

// Addr returns the address a registered node is reached at, the
// transport's one bound address (for diagnostics and peer-map
// construction); an in-process node has none.
func (r *router) Addr(id core.NodeID) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.boxes[id]
	return r.addr, ok && r.addr != ""
}

// route resolves a destination — a local node first, then declared peers
// — so a peer declared after a sender spun up still takes effect on the
// next lookup. Callers hold r.mu.
func (r *router) route(to core.NodeID) (string, bool) {
	if _, ok := r.boxes[to]; ok && r.addr != "" {
		return r.addr, true
	}
	a, ok := r.peers[to]
	return a, ok
}

// register allocates node id's inbox. A socket transport passes listen,
// which the first Register calls to bind the node's declared address (or
// an ephemeral loopback port) and which reports the address it got; it
// runs under r.mu, so it may record the socket in the transport's own
// fields. Later nodes share that socket: one declared elsewhere is refused.
func (r *router) register(id core.NodeID, listen func(bind string) (string, error)) (<-chan Envelope, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrTransportClosed
	}
	if _, ok := r.boxes[id]; ok {
		return nil, fmt.Errorf("runtime: node %d already registered", id)
	}
	if listen != nil {
		bind, declared := r.peers[id]
		switch {
		case r.addr == "":
			if !declared {
				bind = "127.0.0.1:0"
			}
			addr, err := listen(bind)
			if err != nil {
				return nil, fmt.Errorf("runtime: listen for node %d: %w", id, err)
			}
			r.bind, r.addr = bind, addr
		case declared && bind != r.bind && bind != r.addr:
			return nil, fmt.Errorf("runtime: node %d is declared at %s, but this process's nodes are at %s", id, bind, r.addr)
		}
	}
	ch := make(chan Envelope, inboxSize)
	r.boxes[id] = ch
	return ch, nil
}

// lowest is the smallest node routed to addr (NilNode: none), a name for
// it no registration or send order changes. Callers hold r.mu.
func (r *router) lowest(addr string) core.NodeID {
	low := core.NilNode
	see := func(v core.NodeID) {
		if a, _ := r.route(v); a == addr && (low == core.NilNode || v < low) {
			low = v
		}
	}
	for v := range r.peers {
		see(v)
	}
	for v := range r.boxes {
		see(v)
	}
	return low
}

// inbox looks up local node to's inbox. The errors come back bare (this is
// every frame's path; a caller with a user to tell wraps them). Callers
// hold r.mu.
func (r *router) inbox(to core.NodeID) (chan<- Envelope, error) {
	if r.closed {
		return nil, ErrTransportClosed
	}
	ch, ok := r.boxes[to]
	if !ok {
		return nil, ErrUnknownNode
	}
	return ch, nil
}

// offer hands env, which owns spare arrays, to an inbox without blocking:
// a full inbox drops the envelope, releases its arrays, counts the drop
// and reports ErrBackpressure — gossip is loss-tolerant by design, and
// unhelpful packets are redundant anyway.
func (r *router) offer(ch chan<- Envelope, to core.NodeID, env Envelope) error {
	select {
	case ch <- env:
		return nil
	default:
		release(&env)
		r.stats.dropped(to)
		return ErrBackpressure
	}
}

// receive is a socket read loop's delivery: a frame for a node that is
// not local is a counted drop, and false tells the loop the transport
// closed. The inbox is offered to outside the lock: a socket transport
// closes its inboxes only after its read loops have returned.
func (r *router) receive(to core.NodeID, env Envelope) bool {
	r.mu.Lock()
	ch, err := r.inbox(to)
	r.mu.Unlock()
	switch err {
	case nil:
		_ = r.offer(ch, to, env) // a full inbox is a counted drop
	case ErrUnknownNode:
		release(&env)
		r.stats.dropped(to) // misrouted
	}
	return err != ErrTransportClosed
}

// shut marks the router closed and reports whether this call did it.
// Callers hold r.mu.
func (r *router) shut() bool {
	was := r.closed
	r.closed = true
	return !was
}

// closeBoxes closes every inbox, ending the goroutines that serve them,
// once nothing can offer to one: under the lock for a transport that
// offers under it, after its read loops returned for one that does not.
func (r *router) closeBoxes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ch := range r.boxes {
		close(ch)
	}
}

// Stats implements Transport.
func (r *router) Stats() TransportStats { return r.stats.snapshot() }

// ChanTransport is an in-process Transport backed by buffered channels.
// The zero value is not usable; construct with NewChanTransport.
type ChanTransport struct{ router }

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport returns an empty in-process transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{newRouter()} }

// Register implements Transport.
func (t *ChanTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	return t.register(id, nil)
}

// Send implements Transport: it delivers a copy of env in spare arrays.
// When the receiver's inbox is full the envelope is dropped, the drop is
// counted, and ErrBackpressure is returned. The offer happens under the
// lock, which is what lets Close close the inboxes with senders still
// about.
func (t *ChanTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, err := t.inbox(to)
	if err == nil {
		cp := spareEnvelope()
		env.Coeffs = append(cp.Coeffs, env.Coeffs...)
		env.Payload = append(cp.Payload, env.Payload...)
		err = t.offer(ch, to, env)
	}
	if err != nil {
		return fmt.Errorf("%w: inbox of node %d", err, to)
	}
	t.stats.sent(to)
	return nil
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	first := t.shut()
	t.mu.Unlock()
	if first {
		t.closeBoxes()
	}
	return nil
}
