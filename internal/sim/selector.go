package sim

import (
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// PartnerSelector is the paper's "gossip communication model": it decides
// which neighbor a woken node contacts.
type PartnerSelector interface {
	// Partner returns the communication partner for a wakeup of v, or
	// core.NilNode if v has no usable partner (e.g. an isolated node).
	Partner(v core.NodeID, rng *rand.Rand) core.NodeID
	// Name identifies the communication model, e.g. "uniform".
	Name() string
}

// DynamicSelector is a PartnerSelector that can re-target to a new graph
// mid-run (dynamic topologies). Uniform and RoundRobin implement it;
// TAG's selector (tag.Protocol) deliberately does not — a spanning tree
// has no meaningful retarget, which is why tree-based protocols require
// static topologies.
type DynamicSelector interface {
	PartnerSelector
	// SetGraph switches partner selection to g. Per-node selector state
	// (round-robin cursors) is preserved where it still makes sense.
	SetGraph(g *graph.Graph)
}

// Uniform selects a partner uniformly at random among all neighbors
// (Definition 1, uniform gossip).
type Uniform struct {
	g *graph.Graph
}

var _ PartnerSelector = (*Uniform)(nil)

// NewUniform returns a uniform selector over g.
func NewUniform(g *graph.Graph) *Uniform { return &Uniform{g: g} }

// Partner implements PartnerSelector.
func (u *Uniform) Partner(v core.NodeID, rng *rand.Rand) core.NodeID {
	nb := u.g.Neighbors(v)
	if len(nb) == 0 {
		return core.NilNode
	}
	return nb[rng.IntN(len(nb))]
}

// Name implements PartnerSelector.
func (u *Uniform) Name() string { return "uniform" }

// SetGraph implements DynamicSelector.
func (u *Uniform) SetGraph(g *graph.Graph) { u.g = g }

// RoundRobin selects partners according to a fixed cyclic list of each
// node's neighbors, with a uniformly random initial position (Definition 2;
// the quasirandom rumor-spreading model). It is stateful: each call for
// node v advances v's cursor.
type RoundRobin struct {
	g      *graph.Graph
	cursor []int
	seeded []bool
}

var _ PartnerSelector = (*RoundRobin)(nil)

// NewRoundRobin returns a round-robin selector over g. Each node's initial
// list position is drawn uniformly on its first wakeup.
func NewRoundRobin(g *graph.Graph) *RoundRobin {
	return &RoundRobin{
		g:      g,
		cursor: make([]int, g.N()),
		seeded: make([]bool, g.N()),
	}
}

// Partner implements PartnerSelector.
func (r *RoundRobin) Partner(v core.NodeID, rng *rand.Rand) core.NodeID {
	nb := r.g.Neighbors(v)
	if len(nb) == 0 {
		return core.NilNode
	}
	if !r.seeded[v] {
		r.cursor[v] = rng.IntN(len(nb))
		r.seeded[v] = true
	}
	u := nb[r.cursor[v]]
	r.cursor[v] = (r.cursor[v] + 1) % len(nb)
	return u
}

// Name implements PartnerSelector.
func (r *RoundRobin) Name() string { return "round-robin" }

// SetGraph implements DynamicSelector: cursors keep their position where
// the new degree allows it and wrap otherwise, so the cyclic discipline
// survives topology changes without re-drawing initial offsets.
func (r *RoundRobin) SetGraph(g *graph.Graph) {
	r.g = g
	for v := range r.cursor {
		deg := g.Degree(core.NodeID(v))
		if deg == 0 {
			r.cursor[v] = 0
			continue
		}
		if r.cursor[v] >= deg {
			r.cursor[v] %= deg
		}
	}
}
