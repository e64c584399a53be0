package runtime

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// Observer receives completion callbacks from a running cluster; it is
// the simulator's observer contract (internal/sim) applied to live
// deployments, with the node's DoneTick in the round slot — a tick is one
// synchronous round, so that is the simulator's round. Completions during
// a tick are reported from the tick loop, in node order; a node seeded to
// full rank is reported from Seed's caller.
type Observer = sim.Observer

// Config describes a concurrent gossip deployment — the one validated
// configuration shared by NewCluster and NewTAGCluster. Construct it
// through the functional options on those constructors; zero fields pick
// the documented defaults.
type Config struct {
	// Graph is the communication topology.
	Graph *graph.Graph
	// Field is the coefficient field (default GF(256)).
	Field gf.Field
	// K is the number of initial messages.
	K int
	// PayloadLen is the payload length in field symbols; 0 runs rank-only
	// (no payloads, no Decode — the stopping-time measurement mode).
	PayloadLen int
	// GenSize, when positive, codes the k messages in generations of this
	// size (classic whole-k coding otherwise).
	GenSize int
	// Interval is the cluster's clock (default 1ms). Each tick is one
	// round: every local node ingests what was staged for it, then every
	// node contacts one partner — a uniformly random neighbor, or on a
	// tree cluster what TAG's phase prescribes. A cluster hosting the
	// whole graph counts its own frames and starts the next round as soon
	// as the last frame of this one has landed; there Interval is a loss
	// deadline, the longest a round may go without any frame landing
	// before the frames still in flight are presumed lost. A process
	// hosting part of the graph cannot count frames it was never told
	// about, and ticks once an Interval; so does a ControlPlane cluster
	// once every local node is done.
	Interval time.Duration
	// Seed roots per-node randomness.
	Seed uint64
	// Local selects which graph nodes run in this process (default all).
	// A multi-process cluster gives each daemon a disjoint Local set and
	// routes the rest through transport peer declarations.
	Local []core.NodeID
	// Observer, when set, receives NodeDone(v, tick) as local nodes reach
	// full rank.
	Observer Observer
	// ControlPlane hands the cluster's lifetime to a controller: the
	// clock holds until Start is called (inbound traffic is still
	// served), so a controller can seed all processes before any of them
	// begins counting ticks, and the cluster keeps gossiping after Run's
	// local completion target is met, until the Run context is cancelled
	// — required in multi-process deployments where remote nodes still
	// need this process's packets.
	ControlPlane bool
}

// Option mutates a Config under construction.
type Option func(*Config)

// WithPayload enables payload mode with r symbols per message (Decode
// becomes available after completion).
func WithPayload(r int) Option { return func(c *Config) { c.PayloadLen = r } }

// WithGenerations codes the k messages in generations of size genSize.
func WithGenerations(genSize int) Option { return func(c *Config) { c.GenSize = genSize } }

// WithObserver registers a completion observer.
func WithObserver(obs Observer) Option { return func(c *Config) { c.Observer = obs } }

// WithField selects the coefficient field (default GF(256)).
func WithField(f gf.Field) Option { return func(c *Config) { c.Field = f } }

// WithInterval sets the cluster's clock: the round period of a process
// hosting part of the graph, and the loss deadline of one hosting all of
// it, whose rounds end when their last frame lands (see Config.Interval).
func WithInterval(d time.Duration) Option { return func(c *Config) { c.Interval = d } }

// WithSeed roots the deployment's randomness.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithLocalNodes restricts this process to the given graph nodes.
func WithLocalNodes(ids ...core.NodeID) Option {
	return func(c *Config) { c.Local = append([]core.NodeID(nil), ids...) }
}

// WithControlPlane holds the cluster's clock until Start is called and
// keeps its nodes serving peers after local completion, until Run's
// context ends (see Config.ControlPlane).
func WithControlPlane() Option { return func(c *Config) { c.ControlPlane = true } }

// build applies defaults and options and validates the result.
func (c Config) build(opts ...Option) (Config, error) {
	for _, opt := range opts {
		opt(&c)
	}
	if c.Graph == nil {
		return c, fmt.Errorf("runtime: nil graph")
	}
	if c.K <= 0 {
		return c, fmt.Errorf("runtime: k must be positive, got %d", c.K)
	}
	if c.Field == nil {
		c.Field = gf.MustNew(256)
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.PayloadLen < 0 {
		return c, fmt.Errorf("runtime: negative payload length %d", c.PayloadLen)
	}
	if c.GenSize < 0 || c.GenSize > c.K {
		return c, fmt.Errorf("runtime: generation size %d outside [0, %d]", c.GenSize, c.K)
	}
	if c.Local == nil {
		c.Local = make([]core.NodeID, c.Graph.N())
		for v := range c.Local {
			c.Local[v] = core.NodeID(v)
		}
	} else {
		seen := make(map[core.NodeID]bool, len(c.Local))
		for _, id := range c.Local {
			if int(id) < 0 || int(id) >= c.Graph.N() {
				return c, fmt.Errorf("runtime: local node %d outside graph of %d", id, c.Graph.N())
			}
			if seen[id] {
				return c, fmt.Errorf("runtime: duplicate local node %d", id)
			}
			seen[id] = true
		}
		sort.Slice(c.Local, func(i, j int) bool { return c.Local[i] < c.Local[j] })
	}
	return c, nil
}

// newDecoder builds one node's decoder: GenSize-sized generations, or the
// whole-k coding of the paper as one generation of size K.
func (c Config) newDecoder() (*rlnc.GenNode, error) {
	genSize := c.GenSize
	if genSize == 0 {
		genSize = c.K
	}
	return rlnc.NewGenNode(rlnc.GenConfig{
		Inner:   rlnc.Config{Field: c.Field, K: c.K, PayloadLen: c.PayloadLen, RankOnly: c.PayloadLen == 0},
		K:       c.K,
		GenSize: genSize,
	})
}

// emit fills env with a fresh random combination from dec in the
// one-coefficient-per-symbol wire format, whatever the decoder's internal
// representation (bit and sliced packets expand here); false when the
// node stores nothing yet. The combination is built in gp, a reusable
// native packet; what of it is already in wire form (a generic packet, a
// bit packet's payload) env carries as gp's own arrays, which the next
// emit into gp overwrites. That is safe because Transport.Send keeps
// nothing of env.
func emit(dec *rlnc.GenNode, rng *rand.Rand, gp *rlnc.GenPacket, env *Envelope) bool {
	if !dec.EmitInto(rng, gp) {
		return false
	}
	cfg := dec.Config()
	env.Gen = gp.Gen
	env.Coeffs = gp.Packet.ExpandCoeffs(cfg.GenK(gp.Gen))
	env.Payload = gp.Packet.ExpandPayload(cfg.Inner.PayloadLen)
	return true
}

// ingest adapts a wire envelope to dec's native backend and receives it,
// wrapping it in gp, whose Packet the caller provides and reuses. The
// generation tag and the array shapes come from the wire, so Adapt and
// ReceiveOwned screen them — a whole-k node has the single valid tag 0.
// The receive reduces in place: the adapted packet is either freshly
// built by Adapt or wraps the delivered envelope's arrays, which no
// decoder keeps, so the caller may release them afterwards.
func ingest(dec *rlnc.GenNode, gp *rlnc.GenPacket, env *Envelope) {
	if len(env.Coeffs) == 0 {
		return
	}
	gp.Gen = env.Gen
	*gp.Packet = rlnc.Packet{Coeffs: env.Coeffs, Payload: env.Payload}
	dec.ReceiveOwned(dec.Adapt(gp))
}

// NodeStatus is one local node's progress snapshot, and its wire form on
// the daemon's GET /status.
type NodeStatus struct {
	// ID is the node.
	ID core.NodeID `json:"id"`
	// Rank and K are the decoder's current and target rank.
	Rank int `json:"rank"`
	K    int `json:"k"`
	// Done reports full rank; DoneTick is the round in which it happened,
	// in the simulator's units: tick t commits what round t−1 delivered,
	// so a node completed by tick t has DoneTick t−1 (0 for a node seeded
	// to full rank).
	Done     bool `json:"done"`
	DoneTick int  `json:"doneTick"`
	// Ticks counts the ticks of the cluster's clock this node took part in.
	Ticks int `json:"ticks"`
}

// Cluster is a set of gossip nodes over a Transport, run by one tick loop.
// Each tick is one synchronous round: first every live local node ingests
// what was staged for it since the last tick, then every live node
// contacts one partner, in node order. Each node's goroutine only serves
// its inbox. A round ends when its last frame lands (a cluster hosting the
// whole graph) or on the clock (see Config.Interval). The communication
// model is the one thing that varies: whom a node contacts each round. A
// uniform cluster (NewCluster) picks a random neighbor; a tree cluster
// (NewTAGCluster) runs the paper's TAG, growing a spanning tree from
// origin and exchanging with the tree parent.
type Cluster struct {
	cfg       Config
	origin    core.NodeID // the tree's root; NilNode on a uniform cluster
	transport Transport
	nodes     map[core.NodeID]*clusterNode
	startCh   chan struct{}
	startOnce sync.Once
	count     frameCount
}

// RoundStats counts how a cluster's rounds ended. Every tick but an
// all-local cluster's first ends the round before it.
type RoundStats struct {
	// ByCount counts the rounds that ended when their last frame landed
	// (only a cluster hosting the whole graph counts its frames).
	ByCount uint64
	// ByDeadline counts the rounds the clock ended: every round of a
	// process hosting part of the graph, and a round of an all-local one
	// that went an Interval without a frame landing, or was paced after
	// completion under ControlPlane.
	ByDeadline uint64
	// PresumedLost counts the frames an all-local cluster still had in
	// flight when the clock ended their round.
	PresumedLost uint64
}

// frameCount is how a cluster hosting the whole graph knows a round is
// over: every frame it sends lands at one of its own nodes, so it counts
// the frames of the current round in flight. Every Send adds one first
// (send), and a Send that fails settles at once; handle sends its reply
// before it settles the frame it handled. The tick holds the count up
// for its whole contact phase, so it cannot drain while contacts are
// still being sent. When it drains, every frame of the round is staged.
type frameCount struct {
	exact bool // every graph node is local: the count sees every frame

	mu         sync.Mutex
	inFlight   int           // frames of this round sent and not yet handled
	contacting bool          // the tick's hold
	lastLanded time.Time     // when a frame last settled, or the round began
	drained    chan struct{} // one slot: wakes the tick loop when the count drains
	stats      RoundStats
}

// add counts one frame about to be sent.
func (f *frameCount) add() {
	f.mu.Lock()
	f.inFlight++
	f.mu.Unlock()
}

// settle counts one frame handled, or one whose Send failed. A frame of
// an earlier round (see begin) finds the count at zero and leaves it
// there.
func (f *frameCount) settle() {
	f.mu.Lock()
	f.lastLanded = time.Now()
	if f.inFlight > 0 {
		f.inFlight--
		f.drainedLocked()
	}
	f.mu.Unlock()
}

// drainedLocked wakes the tick loop if the round's last frame has landed
// and the contact phase is over.
func (f *frameCount) drainedLocked() {
	if f.inFlight == 0 && !f.contacting {
		select {
		case f.drained <- struct{}{}:
		default: // already awake
		}
	}
}

// begin resets the count for a new round and takes the tick's hold.
//
// A frame still in flight when its round ended on the deadline is not
// awaited any more, but it may land later: it is staged as any frame is,
// so the next commit ingests it — counted one round late, as the clock
// alone would count it. Its settle can cost the round it lands in one
// count; that round then ends with one of its own frames in flight, which
// lands one round late in turn. A settle never takes the count below zero
// and never raises it, so a late frame can neither make it negative nor
// stall a round past the deadline. The wake-up of a round already over is
// discarded here, so it cannot end this one.
func (f *frameCount) begin() {
	f.mu.Lock()
	f.inFlight, f.contacting, f.lastLanded = 0, true, time.Now()
	select {
	case <-f.drained:
	default:
	}
	f.mu.Unlock()
}

// release drops the tick's hold once every contact has been sent.
func (f *frameCount) release() {
	f.mu.Lock()
	f.contacting = false
	f.drainedLocked()
	f.mu.Unlock()
}

// idle is how long the round has gone without a frame landing: a round
// still landing frames is slow, not lost.
func (f *frameCount) idle() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Since(f.lastLanded)
}

// close records how the current round ended; on the deadline, an exact
// count presumes the frames still in flight lost.
func (f *frameCount) close(byCount bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if byCount {
		f.stats.ByCount++
		return
	}
	f.stats.ByDeadline++
	if f.exact {
		f.stats.PresumedLost += uint64(f.inFlight)
	}
}

// clusterNode is one local node's state. The tick loop, the node's inbox
// goroutine, the accessors and ApplyTopology share it under mu.
type clusterNode struct {
	id    core.NodeID
	inbox <-chan Envelope

	mu        sync.Mutex
	neighbors []core.NodeID
	dec       *rlnc.GenNode
	pick      *rand.Rand     // drives partner choice
	rng       *rand.Rand     // drives packet emission
	pkt       rlnc.GenPacket // the tick's contact emits here
	reply     rlnc.GenPacket // the serving goroutine's answers emit here
	in        rlnc.GenPacket // commit wraps each staged envelope in it
	pending   []Envelope     // staged envelopes, ingested at the next tick
	ticks     int
	doneTick  int
	finished  bool
	dead      bool // killed: no tick, no completion, no answer
	// Tree state (tree nodes only): a node joins the tree when the first
	// announcement reaches it, adopting the sender as its parent — the
	// broadcast-as-STP construction of Section 4.1. The origin starts
	// informed and keeps parent NilNode.
	informed bool
	parent   core.NodeID
	cursor   int // next neighbor to announce to, round-robin from a seeded start
}

// NewCluster builds a cluster of k-message algebraic gossip over the
// given transport and topology. Seed initial messages with Seed before
// calling Run (or before Start when the start gate is on).
func NewCluster(transport Transport, g *graph.Graph, k int, opts ...Option) (*Cluster, error) {
	return newCluster(transport, g, core.NilNode, k, opts)
}

// NewTAGCluster deploys the TAG protocol (paper Section 4): on odd ticks
// (Phase 1) each tree node announces the tree round-robin to its
// neighbors, on even ticks (Phase 2) it exchanges coded packets with its
// spanning-tree parent. The tree grows from origin. Everything else —
// options, seeding, completion, Kill, Status — is NewCluster's.
func NewTAGCluster(transport Transport, g *graph.Graph, origin core.NodeID, k int, opts ...Option) (*Cluster, error) {
	if g != nil && (int(origin) < 0 || int(origin) >= g.N()) {
		return nil, fmt.Errorf("runtime: origin %d out of range", origin)
	}
	return newCluster(transport, g, origin, k, opts)
}

func newCluster(transport Transport, g *graph.Graph, origin core.NodeID, k int, opts []Option) (*Cluster, error) {
	cfg, err := Config{Graph: g, K: k}.build(opts...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		origin:    origin,
		transport: transport,
		nodes:     make(map[core.NodeID]*clusterNode, len(cfg.Local)),
		startCh:   make(chan struct{}),
		count:     frameCount{exact: len(cfg.Local) == g.N(), drained: make(chan struct{}, 1)},
	}
	for _, v := range cfg.Local {
		dec, err := cfg.newDecoder()
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d decoder: %w", v, err)
		}
		inbox, err := transport.Register(v)
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d register: %w", v, err)
		}
		seed := core.SplitSeed(cfg.Seed, uint64(v))
		n := &clusterNode{
			id:        v,
			inbox:     inbox,
			neighbors: cfg.Graph.Neighbors(v),
			dec:       dec,
			pick:      core.NewRand(seed),
			rng:       core.NewRand(core.SplitSeed(seed, 1)),
			in:        rlnc.GenPacket{Packet: &rlnc.Packet{}},
			informed:  v == origin,
			parent:    core.NilNode,
		}
		if len(n.neighbors) > 0 {
			n.cursor = int(seed % uint64(len(n.neighbors)))
		}
		c.nodes[v] = n
	}
	return c, nil
}

// node fetches a local node or fails.
func (c *Cluster) node(v core.NodeID) (*clusterNode, error) {
	n, ok := c.nodes[v]
	if !ok {
		return nil, fmt.Errorf("%w: %d not local to this cluster", ErrUnknownNode, v)
	}
	return n, nil
}

// Seed places an initial message at local node v. The message may come
// from a control-plane request, so it is screened here — index, payload
// length, every symbol a field element — and a bad one is an error, never
// a panic under the node lock.
func (c *Cluster) Seed(v core.NodeID, msg rlnc.Message) error {
	node, err := c.node(v)
	if err != nil {
		return err
	}
	if msg.Index < 0 || msg.Index >= c.cfg.K {
		return fmt.Errorf("runtime: seed index %d outside [0,%d)", msg.Index, c.cfg.K)
	}
	if len(msg.Payload) != c.cfg.PayloadLen {
		return fmt.Errorf("runtime: seed payload of %d symbols, want %d", len(msg.Payload), c.cfg.PayloadLen)
	}
	if q := c.cfg.Field.Order(); q < 256 {
		for i, sym := range msg.Payload {
			if int(sym) >= q {
				return fmt.Errorf("runtime: seed payload symbol %d is %d, not an element of GF(%d)", i, sym, q)
			}
		}
	}
	if node.seedMessage(msg) {
		c.notifyDone(node)
	}
	return nil
}

// seedMessage stores a screened message, reporting whether that completed
// the node; the deferred unlock holds whatever the decoder does.
func (n *clusterNode) seedMessage(msg rlnc.Message) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dec.Seed(msg)
	return n.checkDoneLocked()
}

// Rank returns local node v's current rank (-1 for non-local nodes).
func (c *Cluster) Rank(v core.NodeID) int {
	node, err := c.node(v)
	if err != nil {
		return -1
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.dec.Rank()
}

// Decode decodes local node v's messages (payload mode, after completion).
func (c *Cluster) Decode(v core.NodeID) ([]rlnc.Message, error) {
	node, err := c.node(v)
	if err != nil {
		return nil, err
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.dec.Decode()
}

// Parent returns local node v's spanning-tree parent: NilNode before
// Phase 1 reaches it, for the origin, for a node that is not local, and on
// a uniform cluster.
func (c *Cluster) Parent(v core.NodeID) core.NodeID {
	node, err := c.node(v)
	if err != nil {
		return core.NilNode
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.parent
}

// Tree returns the spanning tree once every node has joined it. Only a
// tree cluster hosting the whole graph can report one; a process of a
// multi-process deployment knows its own nodes' Parent and no more.
func (c *Cluster) Tree() (*graph.Tree, bool) {
	if c.origin == core.NilNode || len(c.nodes) != c.cfg.Graph.N() {
		return nil, false
	}
	parent := make([]core.NodeID, len(c.nodes))
	for v, n := range c.nodes {
		n.mu.Lock()
		informed := n.informed
		parent[v] = n.parent
		n.mu.Unlock()
		if !informed {
			return nil, false
		}
	}
	return &graph.Tree{Root: c.origin, Parent: parent}, true
}

// Status snapshots every local node's progress, in ascending node order.
func (c *Cluster) Status() []NodeStatus {
	out := make([]NodeStatus, 0, len(c.cfg.Local))
	for _, v := range c.cfg.Local {
		n := c.nodes[v]
		n.mu.Lock()
		out = append(out, NodeStatus{
			ID:       n.id,
			Rank:     n.dec.Rank(),
			K:        c.cfg.K,
			Done:     n.finished,
			DoneTick: n.doneTick,
			Ticks:    n.ticks,
		})
		n.mu.Unlock()
	}
	return out
}

// ApplyTopology swaps the cluster's communication topology for g, which
// must have the same node count. It is safe to call while Run is active,
// which is how a graph.Dynamic schedule drives a live deployment: a
// controller goroutine materializes dyn.At(round) on its own cadence and
// applies it here. Nodes pick up the new neighbor lists on their next
// tick; packets already in flight still deliver (the transport is not
// re-wired), mirroring the simulator's drop-undeliverable-sends rule
// only approximately — real networks drain in-flight traffic too.
//
// A tree cluster refuses: a parent pointer is void on a new graph, and
// TAG has no rule for re-growing the tree mid-run.
func (c *Cluster) ApplyTopology(g *graph.Graph) error {
	if c.origin != core.NilNode {
		return fmt.Errorf("runtime: a tree cluster cannot change topology: its parent pointers are void on a new graph")
	}
	if g.N() != c.cfg.Graph.N() {
		return fmt.Errorf("runtime: topology has %d nodes, cluster graph has %d", g.N(), c.cfg.Graph.N())
	}
	for v, node := range c.nodes {
		node.mu.Lock()
		node.neighbors = g.Neighbors(v)
		node.mu.Unlock()
	}
	return nil
}

// Kill crashes local node v (churn / failure injection): from now on it
// does not tick, does not complete and does not answer, and Run stops
// waiting for it unless it had completed already. Any information held
// only by v is lost unless it already spread. Killing twice is harmless.
func (c *Cluster) Kill(v core.NodeID) error {
	n, err := c.node(v)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.dead = true
	n.mu.Unlock()
	return nil
}

// Start releases the start gate, which starts the cluster's rounds
// (idempotent). Without WithControlPlane, Run calls it automatically.
func (c *Cluster) Start() {
	c.startOnce.Do(func() { close(c.startCh) })
}

// Rounds snapshots how the cluster's rounds have ended so far.
func (c *Cluster) Rounds() RoundStats {
	c.count.mu.Lock()
	defer c.count.mu.Unlock()
	return c.count.stats
}

// Run serves every local node's inbox on a goroutine of its own, runs the
// cluster's rounds from Start on, and blocks until every live local node
// can decode or ctx is cancelled. A cluster hosting the whole graph starts
// its first round at Start and each next one when the last frame of the
// round before has landed, or after an Interval in which none landed; a
// process hosting part of the graph ticks once an Interval, the first an
// Interval after Start. Early finishers keep taking part in rounds until
// every local node has finished; with ControlPlane the rounds go on,
// once an Interval, until ctx is cancelled, and a post-completion
// cancellation is a clean drain, not an error. It returns the number of
// local nodes that completed.
func (c *Cluster) Run(ctx context.Context) (int, error) {
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // first: the inbox goroutines stop, then Run waits for them
	for _, v := range c.cfg.Local {
		n := c.nodes[v]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.serve(runCtx, n)
		}()
	}
	if !c.cfg.ControlPlane {
		c.Start()
	}
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	var clock <-chan time.Time // nil, never ready, until Start
	start := c.startCh
	for {
		finished, target := c.progress()
		if finished == target && !c.cfg.ControlPlane {
			return finished, nil
		}
		// Rounds end by count while there is a node to finish; serving on
		// after that, the clock paces them, so the loop does not spin.
		counted := c.count.exact && finished < target
		var drained <-chan struct{} // nil, never ready, until Start
		if counted && clock != nil {
			drained = c.count.drained
		}
		select {
		case <-ctx.Done():
			if finished == target {
				return finished, nil
			}
			return finished, fmt.Errorf("runtime: cluster interrupted with %d/%d nodes complete: %w",
				finished, target, ctx.Err())
		case <-start:
			clock, start = ticker.C, nil
			if !counted {
				ticker.Reset(c.cfg.Interval)
				continue
			}
		case <-drained:
			c.count.close(true)
		case <-clock:
			if idle := c.count.idle(); counted && idle < c.cfg.Interval {
				ticker.Reset(c.cfg.Interval - idle) // slow but still landing frames: nothing is lost yet
				continue
			}
			c.count.close(false)
		}
		c.tick(runCtx)
		if counted {
			ticker.Reset(c.cfg.Interval) // the deadline runs from the round's start
		}
	}
}

// progress counts the local nodes that completed, against the target:
// the nodes that completed or are still alive.
func (c *Cluster) progress() (finished, target int) {
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.finished {
			finished++
		}
		if n.finished || !n.dead {
			target++
		}
		n.mu.Unlock()
	}
	return finished, target
}

// serve is node n's goroutine: it hands each inbound envelope to handle
// until the run ends or the transport closes the inbox.
func (c *Cluster) serve(ctx context.Context, n *clusterNode) {
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-n.inbox:
			if !ok {
				return
			}
			c.handle(ctx, n, env)
		}
	}
}

// tick is one synchronous round. Every live node first commits what was
// staged for it — what the previous round delivered — and only then does
// any node contact a partner, so each request of this round is answered
// from a state no delivery of this round can change. The frame count
// starts over with the round and is held up until every contact is sent.
func (c *Cluster) tick(ctx context.Context) {
	c.count.begin()
	for _, v := range c.cfg.Local {
		if n := c.nodes[v]; n.commit() {
			c.notifyDone(n)
		}
	}
	for _, v := range c.cfg.Local {
		c.contact(ctx, c.nodes[v])
	}
	c.count.release()
}

// commit ingests the staged batch and releases its arrays, reporting
// whether that completed the node.
func (n *clusterNode) commit() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return false
	}
	n.ticks++
	for i := range n.pending {
		ingest(n.dec, &n.in, &n.pending[i])
		release(&n.pending[i])
	}
	n.pending = n.pending[:0]
	return n.checkDoneLocked()
}

// contact makes node n's move of the round: a tree announcement, or the
// request leg of an EXCHANGE — empty when n stores nothing, since it
// still asks for the reply. A transport error (backpressure included)
// only settles the frame: gossip is redundant and the next round retries
// elsewhere.
func (c *Cluster) contact(ctx context.Context, n *clusterNode) {
	n.mu.Lock()
	peer, kind := c.partnerLocked(n)
	env := Envelope{Kind: kind, From: n.id, WantReply: kind == EnvelopePacket}
	if peer != core.NilNode && env.WantReply {
		emit(n.dec, n.rng, &n.pkt, &env)
	}
	n.mu.Unlock()
	if peer != core.NilNode {
		c.send(ctx, peer, env)
	}
}

// send puts one counted frame on the transport; a frame the transport
// refuses will never land, so it settles at once.
func (c *Cluster) send(ctx context.Context, to core.NodeID, env Envelope) {
	c.count.add()
	if err := c.transport.Send(ctx, to, env); err != nil {
		c.count.settle()
	}
}

// partnerLocked answers the one question the communication model asks:
// whom does node n contact this round (NilNode: nobody), with a tree
// announcement or an EXCHANGE packet? It is the live counterpart of
// sim.PartnerSelector and the only place a uniform and a tree cluster
// differ on the sending side. A uniform node exchanges with a random
// neighbor. A tree node follows the paper's wakeup parity: odd ticks are
// Phase 1 (an informed node announces the tree to its next neighbor,
// round-robin), even ticks are Phase 2 (EXCHANGE with the parent).
func (c *Cluster) partnerLocked(n *clusterNode) (core.NodeID, EnvelopeKind) {
	switch {
	case n.dead:
		return core.NilNode, EnvelopePacket
	case c.origin == core.NilNode:
		if len(n.neighbors) == 0 {
			return core.NilNode, EnvelopePacket
		}
		return n.neighbors[n.pick.IntN(len(n.neighbors))], EnvelopePacket
	case n.ticks%2 == 0:
		return n.parent, EnvelopePacket
	case !n.informed || len(n.neighbors) == 0:
		return core.NilNode, EnvelopePacket
	}
	peer := n.neighbors[n.cursor]
	n.cursor = (n.cursor + 1) % len(n.neighbors)
	return peer, EnvelopeAnnounce
}

// handle serves one inbound envelope at node n: it stages a packet for the
// next tick's commit, adopts a first announcer as tree parent, and answers
// an EXCHANGE request from the state the last tick committed — the
// simulator's simultaneous exchange. A dead node does none of it, and an
// envelope it does not stage has its arrays released at once. The
// handled frame settles last, after its reply is counted, so the round
// cannot drain between the two.
func (c *Cluster) handle(ctx context.Context, n *clusterNode, env Envelope) {
	reply := Envelope{Kind: EnvelopePacket, From: n.id}
	answer := false
	n.mu.Lock()
	switch {
	case n.dead:
		release(&env)
	case env.Kind == EnvelopeAnnounce:
		if c.origin != core.NilNode && !n.informed {
			n.informed, n.parent = true, env.From
		}
		release(&env)
	default: // an empty request is staged too; ingest skips it
		n.pending = append(n.pending, env)
		answer = env.WantReply && emit(n.dec, n.rng, &n.reply, &reply)
	}
	n.mu.Unlock()
	if answer {
		c.send(ctx, env.From, reply)
	}
	c.count.settle()
}

// checkDoneLocked marks completion exactly once, reporting whether it
// just happened. Tick t commits round t−1, so that is the round stamped.
// Callers hold n.mu and invoke notifyDone after unlocking.
func (n *clusterNode) checkDoneLocked() bool {
	if n.finished || n.dead || !n.dec.CanDecode() {
		return false
	}
	n.finished = true
	n.doneTick = max(n.ticks-1, 0)
	return true
}

// notifyDone reports n's completion to the observer, outside the node
// lock.
func (c *Cluster) notifyDone(n *clusterNode) {
	if c.cfg.Observer != nil {
		c.cfg.Observer.NodeDone(n.id, n.doneTick)
	}
}
