package runtime

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

// TAGCluster deploys the TAG protocol (paper Section 4) as real concurrent
// processes: on alternating ticks each node either (Phase 1) broadcasts a
// spanning-tree announcement round-robin to its neighbors, or (Phase 2)
// exchanges coded packets with its spanning-tree parent. A node joins the
// tree when it receives its first announcement, adopting the sender as its
// parent — the broadcast-as-STP construction of Section 4.1.
type TAGCluster struct {
	cfg       Config
	transport Transport
	nodes     []*tagNode
	doneCh    chan core.NodeID
}

// tagNode is the per-goroutine TAG state.
type tagNode struct {
	id        core.NodeID
	neighbors []core.NodeID
	inbox     <-chan Envelope
	transport Transport
	interval  time.Duration
	isOrigin  bool

	mu       sync.Mutex
	dec      *rlnc.GenNode
	rng      *rand.Rand
	pkt      rlnc.GenPacket // emit's reusable native packet
	informed bool
	parent   core.NodeID
	rrCursor int
	tick     int
	finished bool

	doneCh chan<- core.NodeID
}

// NewTAGCluster builds a TAG deployment of k-message gossip; the spanning
// tree grows from origin. Seed initial messages with Seed before calling
// Run. TAG is single-process and classic-coded: generation and
// local-subset options are rejected.
func NewTAGCluster(transport Transport, g *graph.Graph, origin core.NodeID, k int, opts ...Option) (*TAGCluster, error) {
	cfg, err := Config{Graph: g, K: k}.build(opts...)
	if err != nil {
		return nil, err
	}
	if cfg.GenSize > 0 {
		return nil, fmt.Errorf("runtime: TAG does not support generation coding")
	}
	if len(cfg.Local) != g.N() {
		return nil, fmt.Errorf("runtime: TAG does not support local-subset deployment")
	}
	if int(origin) < 0 || int(origin) >= g.N() {
		return nil, fmt.Errorf("runtime: origin %d out of range", origin)
	}
	n := g.N()
	c := &TAGCluster{
		cfg:       cfg,
		transport: transport,
		nodes:     make([]*tagNode, n),
		doneCh:    make(chan core.NodeID, n),
	}
	for v := 0; v < n; v++ {
		dec, err := cfg.newDecoder()
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d decoder: %w", v, err)
		}
		inbox, err := transport.Register(core.NodeID(v))
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d register: %w", v, err)
		}
		seed := core.SplitSeed(cfg.Seed, uint64(v))
		nd := &tagNode{
			id:        core.NodeID(v),
			neighbors: cfg.Graph.Neighbors(core.NodeID(v)),
			inbox:     inbox,
			transport: transport,
			interval:  cfg.Interval,
			isOrigin:  core.NodeID(v) == origin,
			dec:       dec,
			rng:       core.NewRand(seed),
			parent:    core.NilNode,
			doneCh:    c.doneCh,
		}
		if nd.isOrigin {
			nd.informed = true
		}
		if len(nd.neighbors) > 0 {
			nd.rrCursor = nd.rng.IntN(len(nd.neighbors))
		}
		c.nodes[v] = nd
	}
	return c, nil
}

// Seed places an initial message at node v.
func (c *TAGCluster) Seed(v core.NodeID, msg rlnc.Message) error {
	if int(v) < 0 || int(v) >= len(c.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, v)
	}
	nd := c.nodes[v]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.dec.Seed(msg)
	nd.checkDoneLocked()
	return nil
}

// Rank returns node v's current rank.
func (c *TAGCluster) Rank(v core.NodeID) int {
	nd := c.nodes[v]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.dec.Rank()
}

// Parent returns node v's spanning-tree parent (NilNode before Phase 1
// reaches it, and for the origin).
func (c *TAGCluster) Parent(v core.NodeID) core.NodeID {
	nd := c.nodes[v]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.parent
}

// Tree returns the spanning tree built so far; ok is false until every
// node has a parent.
func (c *TAGCluster) Tree() (*graph.Tree, bool) {
	parent := make([]core.NodeID, len(c.nodes))
	var root core.NodeID
	for v, nd := range c.nodes {
		nd.mu.Lock()
		informed := nd.informed
		parent[v] = nd.parent
		if nd.isOrigin {
			root = nd.id
		}
		nd.mu.Unlock()
		if !informed {
			return nil, false
		}
	}
	return &graph.Tree{Root: root, Parent: parent}, true
}

// Decode decodes node v's messages (payload mode, after completion).
func (c *TAGCluster) Decode(v core.NodeID) ([]rlnc.Message, error) {
	nd := c.nodes[v]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.dec.Decode()
}

// Run starts all node goroutines and blocks until every node can decode or
// ctx is cancelled, returning the number of completed nodes.
func (c *TAGCluster) Run(ctx context.Context) (int, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func(n *tagNode) {
			defer wg.Done()
			n.run(runCtx)
		}(nd)
	}
	finished := 0
	for finished < len(c.nodes) {
		select {
		case <-c.doneCh:
			finished++
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return finished, fmt.Errorf("runtime: TAG cluster interrupted with %d/%d complete: %w",
				finished, len(c.nodes), ctx.Err())
		}
	}
	cancel()
	wg.Wait()
	return finished, nil
}

// run is the node loop: odd ticks run Phase 1 (tree announcements), even
// ticks run Phase 2 (coded exchange with the parent), mirroring the
// paper's wakeup-parity pseudo-code.
func (n *tagNode) run(ctx context.Context) {
	ticker := time.NewTicker(n.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-n.inbox:
			if !ok {
				return
			}
			n.handle(ctx, env)
		case <-ticker.C:
			n.onTick(ctx)
		}
	}
}

func (n *tagNode) onTick(ctx context.Context) {
	n.mu.Lock()
	n.tick++
	phase1 := n.tick%2 == 1
	informed := n.informed
	parent := n.parent
	var announceTo core.NodeID = core.NilNode
	if phase1 && informed && len(n.neighbors) > 0 {
		announceTo = n.neighbors[n.rrCursor]
		n.rrCursor = (n.rrCursor + 1) % len(n.neighbors)
	}
	n.mu.Unlock()

	if phase1 {
		if announceTo != core.NilNode {
			_ = n.transport.Send(ctx, announceTo, Envelope{Kind: EnvelopeAnnounce, From: n.id})
		}
		return
	}
	if parent != core.NilNode {
		n.sendPacket(ctx, parent, true)
	}
}

func (n *tagNode) handle(ctx context.Context, env Envelope) {
	switch env.Kind {
	case EnvelopeAnnounce:
		n.mu.Lock()
		if !n.informed {
			n.informed = true
			n.parent = env.From
		}
		n.mu.Unlock()
	case EnvelopePacket:
		n.mu.Lock()
		ingest(n.dec, &env)
		n.checkDoneLocked()
		n.mu.Unlock()
		if env.WantReply {
			n.sendPacket(ctx, env.From, false)
		}
	}
}

func (n *tagNode) sendPacket(ctx context.Context, peer core.NodeID, wantReply bool) {
	env := Envelope{Kind: EnvelopePacket, From: n.id, WantReply: wantReply}
	n.mu.Lock()
	ok := emit(n.dec, n.rng, &n.pkt, &env)
	n.mu.Unlock()
	if !ok && !wantReply {
		return
	}
	_ = n.transport.Send(ctx, peer, env)
}

// checkDoneLocked signals completion exactly once; callers hold n.mu.
func (n *tagNode) checkDoneLocked() {
	if !n.finished && n.dec.CanDecode() {
		n.finished = true
		n.doneCh <- n.id
	}
}
