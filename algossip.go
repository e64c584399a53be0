package algossip

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
	"algossip/internal/runtime"
	"algossip/internal/sim"
)

// Re-exported kernel types. External users interact with the internal
// packages exclusively through these aliases and the constructors below.
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// Tree is a rooted spanning tree (parent array).
	Tree = graph.Tree
	// NodeID identifies a node, 0..n-1.
	NodeID = core.NodeID
	// TimeModel selects synchronous or asynchronous scheduling.
	TimeModel = core.TimeModel
	// Action is the information-flow direction (PUSH/PULL/EXCHANGE).
	Action = core.Action
	// Message is one initial message (index + payload symbols).
	Message = rlnc.Message
	// Elem is one field symbol (a byte for every supported field).
	Elem = gf.Elem
	// Result summarizes a simulation run.
	Result = sim.Result
	// Cluster is a concurrent (goroutine-per-node) deployment.
	Cluster = runtime.Cluster
	// ClusterConfig is the unified, validated runtime configuration
	// (construct it through NewCluster's functional options).
	ClusterConfig = runtime.Config
	// ClusterOption customizes a cluster under construction.
	ClusterOption = runtime.Option
	// Transport moves packets between concurrent nodes.
	Transport = runtime.Transport
	// TransportStats snapshots a transport's send/drop/redial counters.
	TransportStats = runtime.TransportStats
	// Envelope is the wire message moved by Transports.
	Envelope = runtime.Envelope
)

// Re-exported constants.
const (
	// Synchronous: every node acts once per round.
	Synchronous = core.Synchronous
	// Asynchronous: one uniform random node acts per timeslot.
	Asynchronous = core.Asynchronous
	// Push, Pull and Exchange are the contact actions of the paper.
	Push     = core.Push
	Pull     = core.Pull
	Exchange = core.Exchange
	// NilNode is the "no node" sentinel.
	NilNode = core.NilNode
)

// Topology constructors (see internal/graph for details).
var (
	// Line returns the path graph P_n.
	Line = graph.Line
	// Ring returns the cycle C_n.
	Ring = graph.Ring
	// Grid returns the rows x cols 2D grid.
	Grid = graph.Grid
	// Torus returns the wraparound grid.
	Torus = graph.Torus
	// Complete returns K_n.
	Complete = graph.Complete
	// Star returns the star graph.
	Star = graph.Star
	// BinaryTree returns the complete binary tree.
	BinaryTree = graph.BinaryTree
	// KAryTree returns the complete k-ary tree.
	KAryTree = graph.KAryTree
	// Barbell returns two cliques joined by one edge.
	Barbell = graph.Barbell
	// Lollipop returns a clique with a tail path.
	Lollipop = graph.Lollipop
	// CliqueChain returns c cliques of size m in a chain.
	CliqueChain = graph.CliqueChain
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// ErdosRenyi returns a connected G(n,p) sample.
	ErdosRenyi = graph.ErdosRenyi
	// RandomRegular returns a near-d-regular connected graph.
	RandomRegular = graph.RandomRegular
)

// Byte helpers for payload applications.
var (
	// SplitBytes chunks data into k messages for dissemination.
	SplitBytes = rlnc.SplitBytes
	// JoinBytes reassembles data from decoded messages.
	JoinBytes = rlnc.JoinBytes
)

// Theorem1Bound is Theorem 1's reference (k + log n + D)·Δ for uniform
// algebraic gossip, given n, k, the diameter D and the maximum degree Δ.
var Theorem1Bound = algebraic.Theorem1Bound

// Concurrent-runtime constructors and options. NewCluster takes the
// transport, the topology, and k, plus functional options:
//
//	c, err := algossip.NewCluster(tr, g, k,
//	    algossip.WithPayload(64), algossip.WithSeed(7))
var (
	// NewChanTransport returns the in-process transport.
	NewChanTransport = runtime.NewChanTransport
	// NewTCPTransport returns the wire-framed TCP transport.
	NewTCPTransport = runtime.NewTCPTransport
	// NewUDPTransport returns the one-frame-per-datagram UDP transport.
	NewUDPTransport = runtime.NewUDPTransport
	// NewLossyTransport wraps a transport with i.i.d. loss injection.
	NewLossyTransport = runtime.NewLossyTransport
	// NewCluster builds a concurrent gossip deployment.
	NewCluster = runtime.NewCluster
	// NewTAGCluster builds a concurrent TAG deployment.
	NewTAGCluster = runtime.NewTAGCluster

	// WithPayload enables payload mode with r symbols per message.
	WithPayload = runtime.WithPayload
	// WithGenerations codes the k messages in generations of this size.
	WithGenerations = runtime.WithGenerations
	// WithObserver registers a completion observer.
	WithObserver = runtime.WithObserver
	// WithField selects the coefficient field (default GF(256)).
	WithField = runtime.WithField
	// WithInterval sets the cluster's clock: the loss deadline of a
	// cluster hosting every node, whose rounds end when their last frame
	// lands, and the round period of one hosting part of the graph.
	WithInterval = runtime.WithInterval
	// WithSeed roots the deployment's randomness.
	WithSeed = runtime.WithSeed
)

// Typed transport errors, for errors.Is.
var (
	// ErrTransportClosed reports an operation on a closed transport.
	ErrTransportClosed = runtime.ErrTransportClosed
	// ErrUnknownNode reports a Send to an unroutable node.
	ErrUnknownNode = runtime.ErrUnknownNode
	// ErrBackpressure reports an envelope dropped on a full queue.
	ErrBackpressure = runtime.ErrBackpressure
)

// Protocol selects a k-dissemination protocol for Run. It lives in
// internal/harness (the shared experiment engine); the alias keeps the
// public API stable.
type Protocol = harness.Protocol

const (
	// ProtocolUniformAG is uniform algebraic gossip (Theorem 1).
	ProtocolUniformAG = harness.ProtocolUniformAG
	// ProtocolTAGRR is TAG with the round-robin broadcast B_RR (Theorem 5).
	ProtocolTAGRR = harness.ProtocolTAGRR
	// ProtocolTAGUniform is TAG with a uniform broadcast as S.
	ProtocolTAGUniform = harness.ProtocolTAGUniform
	// ProtocolTAGIS is TAG with the IS protocol as S (Theorems 6-8).
	ProtocolTAGIS = harness.ProtocolTAGIS
	// ProtocolUncoded is the store-and-forward baseline.
	ProtocolUncoded = harness.ProtocolUncoded
)

// ParseProtocol converts a name such as "tag-brr" to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	return harness.ParseProtocol(s)
}

// Spec declares one simulated k-dissemination run. Zero fields default to
// the paper's canonical configuration: synchronous time, EXCHANGE, GF(2),
// messages spread round-robin across nodes.
type Spec struct {
	// Graph is the topology (required).
	Graph *Graph
	// K is the number of messages (required).
	K int
	// Protocol picks the dissemination protocol (default uniform AG).
	Protocol Protocol
	// Model is the time model (default Synchronous).
	Model TimeModel
	// Q is the field order (default 2): 2, 4, 8, ..., 256 or a prime up
	// to 251; anything else is an error from Run.
	Q int
	// Action is the contact action (default Exchange). Push and Pull are
	// for uniform AG and the uncoded baseline; the TAG protocols refuse them.
	Action Action
	// SingleSource seeds all messages at node 0 instead of round-robin.
	SingleSource bool
	// MaxRounds caps the simulation (default generous).
	MaxRounds int
}

// Run simulates the spec with the given seed and returns the stopping time
// in rounds: RunDetailed minus the detail. Identical (Spec, seed) pairs
// produce identical results.
func Run(spec Spec, seed uint64) (Result, error) {
	res, _, err := RunDetailed(spec, seed)
	return res, err
}

// gf256 is the field Disseminate codes over; a field is immutable once
// built, so every call shares one.
var gf256 = sync.OnceValue(func() gf.Field { return gf.MustNew(256) })

// lastTrial holds the protocol of the last Disseminate call to finish,
// for the next call of the same shape to reset rather than rebuild
// (algebraic.Renew): n, k, r and the decoder backend. A call swaps it out
// before it starts and stores its own back when it is done, so two calls
// never share it — one that finds it empty builds afresh. The protocol
// it keeps, which holds that call's payloads, is the only state that
// outlives a call.
var lastTrial atomic.Pointer[algebraic.Protocol]

// Disseminate runs payload-mode uniform algebraic gossip over the graph
// until every node can decode, then returns node 0's decoded messages.
// msgs[i].Index must equal i; message i starts at node assign[i] (nil
// assign spreads round-robin). It is the simplest end-to-end entry point
// for applications that actually want the data moved, not just timed.
// The result depends on the arguments alone, not on earlier calls, and
// Disseminate is safe for concurrent use.
func Disseminate(g *Graph, msgs []Message, assign []NodeID, seed uint64) ([]Message, Result, error) {
	k := len(msgs)
	if k == 0 {
		return nil, Result{}, fmt.Errorf("algossip: no messages")
	}
	r := len(msgs[0].Payload)
	cfg := rlnc.Config{Field: gf256(), K: k, PayloadLen: r}
	p, err := algebraic.Renew(lastTrial.Swap(nil), g, core.Synchronous, sim.NewUniform(g),
		algebraic.Config{RLNC: cfg}, core.NewRand(core.SplitSeed(seed, 1)))
	if err != nil {
		return nil, Result{}, err
	}
	defer lastTrial.Store(p)
	if assign == nil {
		assign = algebraic.RoundRobinAssign(k, g.N())
	}
	if err := p.SeedAll(assign, msgs); err != nil {
		return nil, Result{}, err
	}
	res, err := sim.New(g, core.Synchronous, p, core.SplitSeed(seed, 2)).Run()
	if err != nil {
		return nil, res, err
	}
	decoded, err := p.Node(0).Decode()
	return decoded, res, err
}

// NewRand returns the library's deterministic RNG for a seed; exposed so
// applications can drive the random topology constructors reproducibly.
func NewRand(seed uint64) *rand.Rand { return core.NewRand(seed) }

// RandomMessages builds k messages with r random GF(256) payload symbols
// each, for demos and tests.
func RandomMessages(k, r int, seed uint64) []Message {
	cfg := rlnc.Config{Field: gf256(), K: k, PayloadLen: r}
	return algebraic.RandomMessages(cfg, core.NewRand(seed))
}
