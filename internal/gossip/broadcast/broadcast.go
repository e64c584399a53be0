// Package broadcast implements gossip broadcast (1-dissemination)
// protocols, which double as spanning-tree (STP) protocols: when a node
// receives the broadcast message for the first time, it marks the sender as
// its parent, so the completed broadcast induces a spanning tree rooted at
// the origin (paper Sections 2 and 4.1).
//
// With the round-robin communication model this is the B_RR protocol of
// Theorem 5, which finishes in at most 3n synchronous rounds with
// probability 1 on any connected graph (via Lemma 2: the degree sum along
// any shortest path is at most 3n), and in O(n) rounds w.h.p. in the
// asynchronous model.
package broadcast

import (
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/sim"
)

// Config parameterizes a broadcast run.
type Config struct {
	// Origin is the node that initially holds the message.
	Origin core.NodeID
	// Action is the information-flow direction on contact. The default
	// (zero value) is Push, matching the proof of Theorem 5; Exchange also
	// satisfies the theorem.
	Action core.Action
}

// inform is one staged "u becomes informed by v" event (synchronous model).
type inform struct {
	to, from core.NodeID
}

// Protocol is a gossip broadcast state machine implementing sim.Protocol;
// a node is done (gossip.Progress) once it is informed, the origin from
// round 0. Pair it with sim.NewUniform for uniform broadcast or
// sim.NewRoundRobin for B_RR.
type Protocol struct {
	gossip.Progress
	sel sim.PartnerSelector
	rng *rand.Rand
	cfg Config

	parent []core.NodeID
	staged []inform
}

var _ sim.Protocol = (*Protocol)(nil)

// New constructs a broadcast protocol over g with the message at
// cfg.Origin.
func New(g *graph.Graph, model core.TimeModel, sel sim.PartnerSelector, cfg Config, rng *rand.Rand) *Protocol {
	if cfg.Action == 0 {
		cfg.Action = core.Push
	}
	p := &Protocol{
		Progress: gossip.NewProgress(g.N(), model),
		sel:      sel,
		rng:      rng,
		cfg:      cfg,
		parent:   make([]core.NodeID, g.N()),
	}
	for i := range p.parent {
		p.parent[i] = core.NilNode
	}
	if model == core.Synchronous {
		// Room for a round in which every node informs another (PUSH and
		// PULL never stage more), so a trial's allocations do not grow
		// with n.
		p.staged = make([]inform, 0, g.N())
	}
	p.MarkDone(cfg.Origin)
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	// Concatenated, not formatted, as algebraic.Protocol.Name: a TAG run
	// names its tree protocol, and fmt's pooled printers would make what
	// a trial allocates depend on when the collector last ran.
	return "broadcast(" + p.sel.Name() + "," + p.cfg.Action.String() + ")"
}

// OnWake implements sim.Protocol.
func (p *Protocol) OnWake(v core.NodeID) {
	p.Wake()
	u := p.sel.Partner(v, p.rng)
	if u == core.NilNode {
		return
	}
	out, back := p.cfg.Action.Legs()
	if out {
		p.transfer(v, u)
	}
	if back {
		p.transfer(u, v)
	}
}

// transfer propagates the message from `from` to `to` if `from` is informed
// (start-of-round state in the synchronous model, where informs are staged).
// Every transmission is counted, including ones the receiver discards.
func (p *Protocol) transfer(from, to core.NodeID) {
	if !p.IsDone(from) {
		return // nothing to send yet
	}
	p.Counts.Sent++
	if p.IsDone(to) {
		p.Counts.Useless++
		return
	}
	if p.Model == core.Synchronous {
		p.staged = append(p.staged, inform{to: to, from: from})
		return
	}
	p.apply(to, from)
}

// apply marks `to` informed with parent `from` (first informer wins).
func (p *Protocol) apply(to, from core.NodeID) {
	if p.IsDone(to) {
		p.Counts.Useless++
		return
	}
	p.Counts.Helpful++
	p.parent[to] = from
	p.MarkDone(to)
}

// EndRound implements sim.Protocol. Informs become visible at the end of
// the round; a node informed this round starts sending next round.
func (p *Protocol) EndRound(int) {
	for _, in := range p.staged {
		p.apply(in.to, in.from)
	}
	p.staged = p.staged[:0]
}

// Parent returns v's parent in the induced spanning tree (NilNode until v
// is informed, and for the origin).
func (p *Protocol) Parent(v core.NodeID) core.NodeID { return p.parent[v] }

// Tree returns the induced spanning tree once the broadcast is complete.
// The boolean is false while any node is uninformed.
func (p *Protocol) Tree() (*graph.Tree, bool) {
	if !p.Done() {
		return nil, false
	}
	return &graph.Tree{
		Root:   p.cfg.Origin,
		Parent: append([]core.NodeID(nil), p.parent...),
	}, true
}
