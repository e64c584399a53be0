// Package tag implements TAG (Tree-based Algebraic Gossip), the paper's
// headline protocol (Section 4). TAG interleaves two phases by wakeup
// parity:
//
//   - Phase 1 (odd wakeups): run an arbitrary spanning-tree gossip protocol
//     S. Once a node becomes part of the spanning tree it obtains a parent.
//   - Phase 2 (even wakeups): once a node has a parent, perform EXCHANGE
//     algebraic gossip with that fixed partner.
//
// Phase 2 is algebraic.Protocol itself under a different partner choice.
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
// a sim.Protocol on a round ledger that assigns each node a parent. Both
// broadcast.Protocol and ispread.Protocol satisfy it.
type SpanningTree interface {
	sim.Protocol
	// Wake counts a wakeup S was not given (gossip.Progress), so S's done
	// stamps stay in rounds of the run in the asynchronous model.
	Wake()
	// Traffic returns S's transmission counters.
	Traffic() gossip.Traffic
	// Parent returns v's parent, or core.NilNode while v has not joined
	// the tree (and for the root).
	Parent(v core.NodeID) core.NodeID
	// Tree returns the completed spanning tree, with ok=false until the
	// protocol is done.
	Tree() (*graph.Tree, bool)
}

// Protocol is TAG under the engine, and it is the communication model
// (sim.PartnerSelector) of the algebraic protocol it drives: that is all
// Phase 2 differs in from uniform algebraic gossip.
type Protocol struct {
	stp SpanningTree
	ag  *algebraic.Protocol

	wakeups   []int // per-node wakeup counter; first wakeup is #1 (odd)
	treeRound int   // round at which Phase 1 completed (-1 while running)
}

var (
	_ sim.Protocol        = (*Protocol)(nil)
	_ sim.PartnerSelector = (*Protocol)(nil)
)

// New constructs TAG over g with spanning-tree protocol stp and RLNC
// configuration rcfg. rng drives the algebraic phase's coding randomness;
// the spanning-tree protocol owns its own randomness.
func New(g *graph.Graph, model core.TimeModel, stp SpanningTree, rcfg rlnc.Config, rng *rand.Rand) (*Protocol, error) {
	p := &Protocol{stp: stp, wakeups: make([]int, g.N()), treeRound: -1}
	ag, err := algebraic.New(g, model, p, algebraic.Config{
		RLNC:   rcfg,
		Action: core.Exchange,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("tag: %w", err)
	}
	p.ag = ag
	return p, nil
}

// Algebraic returns the Phase 2 protocol: messages are seeded into it, and
// ranks, decoders and per-node completion rounds read back from it.
func (p *Protocol) Algebraic() *algebraic.Protocol { return p.ag }

// Name implements sim.Protocol and sim.PartnerSelector.
func (p *Protocol) Name() string {
	return fmt.Sprintf("TAG(%s)", p.stp.Name())
}

// OnWake implements sim.Protocol: it numbers v's wakeup and hands it to the
// algebraic protocol, which counts it on its clock and asks Partner whom v
// contacts.
func (p *Protocol) OnWake(v core.NodeID) {
	p.wakeups[v]++
	p.ag.OnWake(v)
}

// Partner implements sim.PartnerSelector: an odd wakeup is Phase 1's (S
// takes its step and v contacts nobody), an even one Phase 2's (v contacts
// its tree parent, nobody until Phase 1 delivers one). It draws nothing
// from the algebraic protocol's stream.
func (p *Protocol) Partner(v core.NodeID, _ *rand.Rand) core.NodeID {
	if p.wakeups[v]%2 == 1 {
		p.stp.OnWake(v)
		return core.NilNode
	}
	p.stp.Wake()
	return p.stp.Parent(v)
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
}

// Done implements sim.Protocol: the k-dissemination task is complete when
// every node reaches rank k. The engine polls it after every synchronous
// round and every asynchronous timeslot, so the first poll that finds S
// done is in the round S finished in: that round is t(S).
func (p *Protocol) Done() bool {
	if p.treeRound < 0 && p.stp.Done() {
		p.treeRound = p.ag.Round
	}
	return p.ag.Done()
}

// Traffic returns combined transmission counters: the algebraic phase's
// packets plus the spanning-tree protocol's messages.
func (p *Protocol) Traffic() gossip.Traffic {
	t := p.ag.Traffic()
	t.Add(p.stp.Traffic())
	return t
}

// TreeProtocol returns the Phase 1 protocol, for inspecting t(S) and d(S).
func (p *Protocol) TreeProtocol() SpanningTree { return p.stp }

// TreeRound returns t(S), the round at which Phase 1 completed, or -1
// while it has not.
func (p *Protocol) TreeRound() int { return p.treeRound }
