// Package tag implements TAG (Tree-based Algebraic Gossip), the paper's
// headline protocol (Section 4). TAG interleaves two phases by wakeup
// parity:
//
//   - Phase 1 (odd wakeups): run an arbitrary spanning-tree gossip protocol
//     S. Once a node becomes part of the spanning tree it obtains a parent.
//   - Phase 2 (even wakeups): once a node has a parent, perform EXCHANGE
//     algebraic gossip with that fixed partner.
//
// Theorem 4 bounds the stopping time by O(k + log n + d(S) + t(S)) in both
// time models; with the round-robin broadcast B_RR as S this is Θ(n) for
// k = Ω(n) on any graph (Theorem 5), and with the IS protocol as S it is
// Θ(k) on graphs with large weak conductance (Theorems 7–8).
package tag

import (
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// SpanningTree is the contract TAG requires from its Phase 1 protocol S:
// a sim.Protocol that assigns each node a parent. Both
// broadcast.Protocol and ispread.Protocol satisfy it.
type SpanningTree interface {
	sim.Protocol
	// Parent returns v's parent, or core.NilNode while v has not joined
	// the tree (and for the root).
	Parent(v core.NodeID) core.NodeID
	// Tree returns the completed spanning tree, with ok=false until the
	// protocol is done.
	Tree() (*graph.Tree, bool)
}

// Protocol is the TAG state machine implementing sim.Protocol.
type Protocol struct {
	g     *graph.Graph
	model core.TimeModel
	stp   SpanningTree
	ag    *algebraic.Protocol
	fixed *sim.Fixed

	wakeups   []int // per-node wakeup counter; first wakeup is #1 (odd)
	treeDone  bool
	treeRound int // round at which Phase 1 completed (-1 while running)
}

var _ sim.Protocol = (*Protocol)(nil)

// New constructs TAG over g with spanning-tree protocol stp and RLNC
// configuration rcfg. rng drives the algebraic phase's coding randomness;
// the spanning-tree protocol owns its own randomness.
func New(g *graph.Graph, model core.TimeModel, stp SpanningTree, rcfg rlnc.Config, rng *rand.Rand) (*Protocol, error) {
	fixed := sim.NewFixed(g.N())
	ag, err := algebraic.New(g, model, fixed, algebraic.Config{
		RLNC:   rcfg,
		Action: core.Exchange,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("tag: %w", err)
	}
	return &Protocol{
		g:         g,
		model:     model,
		stp:       stp,
		ag:        ag,
		fixed:     fixed,
		wakeups:   make([]int, g.N()),
		treeRound: -1,
	}, nil
}

// SetObserver installs a progress observer on the algebraic phase
// (per-node completion tracking; must be called before running).
func (p *Protocol) SetObserver(obs sim.Observer) { p.ag.SetObserver(obs) }

// Seed places message msg at node v (delegates to the algebraic phase).
func (p *Protocol) Seed(v core.NodeID, msg rlnc.Message) { p.ag.Seed(v, msg) }

// SeedAll distributes all k messages; see algebraic.Protocol.SeedAll.
func (p *Protocol) SeedAll(assign []core.NodeID, msgs []rlnc.Message) error {
	return p.ag.SeedAll(assign, msgs)
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("TAG(%s)", p.stp.Name())
}

// OnWake implements sim.Protocol: odd wakeups run Phase 1 (the spanning
// tree protocol), even wakeups run Phase 2 (algebraic gossip with the
// parent, once one exists).
func (p *Protocol) OnWake(v core.NodeID) {
	p.wakeups[v]++
	if p.wakeups[v]%2 == 1 {
		// Phase 1. Keep the algebraic phase's async clock ticking so its
		// per-node completion rounds stay in wall-clock units.
		p.stp.OnWake(v)
		p.ag.Tick()
		return
	}
	parent := p.stp.Parent(v)
	if parent == core.NilNode {
		// Idle until Phase 1 delivers a parent.
		p.ag.Tick()
		return
	}
	p.fixed.Set(v, parent)
	p.ag.OnWake(v)
}

// BeginRound implements sim.Protocol.
func (p *Protocol) BeginRound(round int) {
	p.stp.BeginRound(round)
	p.ag.BeginRound(round)
}

// EndRound implements sim.Protocol.
func (p *Protocol) EndRound(round int) {
	p.stp.EndRound(round)
	p.ag.EndRound(round)
	if !p.treeDone && p.stp.Done() {
		p.treeDone = true
		p.treeRound = round
	}
}

// Done implements sim.Protocol: the k-dissemination task is complete when
// every node reaches rank k.
func (p *Protocol) Done() bool {
	if !p.treeDone && p.stp.Done() {
		p.treeDone = true
	}
	return p.ag.Done()
}

// Rank returns node v's rank in the algebraic phase.
func (p *Protocol) Rank(v core.NodeID) int { return p.ag.Rank(v) }

// Node returns node v's RLNC state.
func (p *Protocol) Node(v core.NodeID) *rlnc.GenNode { return p.ag.Node(v) }

// DoneRounds returns per-node completion rounds of the algebraic phase.
func (p *Protocol) DoneRounds() []int { return p.ag.DoneRounds() }

// Traffic returns combined transmission counters: the algebraic phase's
// packets plus the spanning-tree protocol's messages (when S exposes them).
func (p *Protocol) Traffic() gossip.Traffic {
	t := p.ag.Traffic()
	if tp, ok := p.stp.(interface{ Traffic() gossip.Traffic }); ok {
		t.Add(tp.Traffic())
	}
	return t
}

// TreeProtocol returns the Phase 1 protocol, for inspecting t(S) and d(S).
func (p *Protocol) TreeProtocol() SpanningTree { return p.stp }

// TreeRound returns the synchronous round at which Phase 1 completed, or
// -1 (only tracked in the synchronous model).
func (p *Protocol) TreeRound() int { return p.treeRound }
