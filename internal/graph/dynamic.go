package graph

// Dynamic topologies: the time-varying counterpart of *Graph. A Dynamic
// schedule is a deterministic function from the round number to the graph
// in force during that round, which is how the simulation engine models
// churn, lossy links, mobility and reconfiguration on top of the paper's
// static-graph analysis.
//
// Determinism contract (relied on by internal/sim and internal/harness):
//
//   - The node count is constant for the lifetime of the schedule: every
//     At(round) graph has exactly At(0).N() nodes. Nodes that are "down"
//     (churned out, not yet joined) stay present but isolated, so node
//     IDs and protocol state arrays never resize.
//   - At is a pure function of the round: the same round always yields
//     the same topology, and consecutive rounds with an unchanged
//     topology yield the SAME *Graph pointer — the engine detects
//     transitions by pointer comparison.
//   - All randomness derives from the schedule's own seed via
//     core.SplitSeed streams, never from call order.
//
// Schedules cache the last materialized graph and are meant to be driven
// by a single engine goroutine; they are not safe for concurrent use.

import (
	"fmt"

	"algossip/internal/core"
)

// Dynamic is a time-varying topology: one graph per round.
type Dynamic interface {
	// Name identifies the schedule, e.g. "ring-64+edgefail-p0.20".
	Name() string
	// At returns the topology in force during the given round (pure; see
	// the package contract above).
	At(round int) *Graph
}

// Churner is an optional Dynamic extension for schedules with node
// churn: ResetAt lists the nodes whose protocol state must be reset at
// the start of the given round because they left and rejoined (a rejoin
// is a fresh machine: subspaces, message stores and informed flags are
// re-initialized from the node's initial seeds).
type Churner interface {
	ResetAt(round int) []core.NodeID
}

// StaticSchedule is the trivial constant schedule: the same graph every
// round. Running a protocol over Static(g) is bit-identical to running
// it over g directly.
type StaticSchedule struct{ g *Graph }

var _ Dynamic = (*StaticSchedule)(nil)

// Static wraps a static graph as a Dynamic schedule.
func Static(g *Graph) *StaticSchedule { return &StaticSchedule{g: g} }

// Name implements Dynamic.
func (s *StaticSchedule) Name() string { return s.g.Name() }

// At implements Dynamic: always the wrapped graph, same pointer.
func (s *StaticSchedule) At(int) *Graph { return s.g }

// filterEdges returns base restricted to the edges keep accepts — the
// shared step of every subtractive schedule. keep is invoked once per
// edge in base.Edges() order, which is what pins the RNG draw order of
// the sampling schedules.
func filterEdges(base *Graph, keep func(e [2]core.NodeID) bool) *Graph {
	b := newSizedBuilder(base.name, base.N(), base.M())
	for u := range core.NodeID(base.N()) {
		for _, v := range base.Neighbors(u) {
			if e := [2]core.NodeID{u, v}; u < v && keep(e) {
				b.edges = append(b.edges, e)
			}
		}
	}
	return b.Build()
}

// EdgeFailureSchedule fails each edge of a base graph independently with
// a fixed probability, resampled every round (i.i.d. link loss — the
// memoryless failure model).
type EdgeFailureSchedule struct {
	base *Graph
	rate float64
	seed uint64

	lastRound int
	lastGraph *Graph
}

var _ Dynamic = (*EdgeFailureSchedule)(nil)

// NewEdgeFailures returns a schedule over base where every edge is down
// with probability rate in each round, independently across edges and
// rounds. rate must be in [0, 1).
func NewEdgeFailures(base *Graph, rate float64, seed uint64) *EdgeFailureSchedule {
	if !(rate >= 0 && rate < 1) { // NaN fails it too
		panic(fmt.Sprintf("graph: edge failure rate %v outside [0, 1)", rate))
	}
	return &EdgeFailureSchedule{base: base, rate: rate, seed: seed, lastRound: -1}
}

// Name implements Dynamic.
func (s *EdgeFailureSchedule) Name() string {
	return fmt.Sprintf("%s+edgefail-p%.2f", s.base.Name(), s.rate)
}

// At implements Dynamic: the surviving subgraph for the given round.
func (s *EdgeFailureSchedule) At(round int) *Graph {
	if s.rate == 0 {
		return s.base
	}
	if round == s.lastRound && s.lastGraph != nil {
		return s.lastGraph
	}
	rng := core.NewRand(core.SplitSeed(s.seed, uint64(round)))
	s.lastRound = round
	s.lastGraph = filterEdges(s.base, func([2]core.NodeID) bool {
		return rng.Float64() >= s.rate
	})
	return s.lastGraph
}

// BurstFailureSchedule alternates between the intact base graph and
// correlated failure bursts: every period rounds, a burst of burstLen
// rounds begins during which a fixed random subset of edges (each chosen
// with probability rate, stable for the whole burst) is down.
type BurstFailureSchedule struct {
	base     *Graph
	rate     float64
	period   int
	burstLen int
	seed     uint64

	lastEpoch int
	lastGraph *Graph
}

var _ Dynamic = (*BurstFailureSchedule)(nil)

// NewBurstFailures returns a burst-failure schedule. The first burst
// starts at round period (round 0 always sees the intact base graph),
// and burstLen must be smaller than period so the graph heals between
// bursts.
func NewBurstFailures(base *Graph, rate float64, period, burstLen int, seed uint64) *BurstFailureSchedule {
	if !(rate >= 0 && rate < 1) { // NaN fails it too
		panic(fmt.Sprintf("graph: burst failure rate %v outside [0, 1)", rate))
	}
	if period < 1 || burstLen < 1 || burstLen >= period {
		panic(fmt.Sprintf("graph: burst needs 1 <= burstLen < period, got %d/%d", burstLen, period))
	}
	return &BurstFailureSchedule{base: base, rate: rate, period: period,
		burstLen: burstLen, seed: seed, lastEpoch: -1}
}

// Name implements Dynamic.
func (s *BurstFailureSchedule) Name() string {
	return fmt.Sprintf("%s+burst-p%.2f-t%d/%d", s.base.Name(), s.rate, s.burstLen, s.period)
}

// At implements Dynamic.
func (s *BurstFailureSchedule) At(round int) *Graph {
	if round < s.period || round%s.period >= s.burstLen {
		return s.base
	}
	epoch := round / s.period
	if epoch == s.lastEpoch && s.lastGraph != nil {
		return s.lastGraph
	}
	rng := core.NewRand(core.SplitSeed(s.seed, uint64(epoch)))
	s.lastEpoch = epoch
	s.lastGraph = filterEdges(s.base, func([2]core.NodeID) bool {
		return rng.Float64() >= s.rate
	})
	return s.lastGraph
}

// RewireSchedule periodically rewires a fraction of the base graph's
// edges to uniformly random endpoints (mobility / reconfigurable-fabric
// model): epoch 0 is the intact base graph, and every period rounds a
// fresh rewiring is drawn. Rewired samples are not guaranteed to stay
// connected — transient partitions are part of the modeled regime.
type RewireSchedule struct {
	base     *Graph
	fraction float64
	period   int
	seed     uint64

	lastEpoch int
	lastGraph *Graph
}

var _ Dynamic = (*RewireSchedule)(nil)

// NewRewire returns a schedule that rewires each edge with probability
// fraction at every period-round boundary.
func NewRewire(base *Graph, fraction float64, period int, seed uint64) *RewireSchedule {
	if !(fraction >= 0 && fraction <= 1) { // NaN fails it too
		panic(fmt.Sprintf("graph: rewire fraction %v outside [0, 1]", fraction))
	}
	if period < 1 {
		panic("graph: rewire period must be positive")
	}
	return &RewireSchedule{base: base, fraction: fraction, period: period,
		seed: seed, lastEpoch: -1}
}

// Name implements Dynamic.
func (s *RewireSchedule) Name() string {
	return fmt.Sprintf("%s+rewire-f%.2f-t%d", s.base.Name(), s.fraction, s.period)
}

// At implements Dynamic.
func (s *RewireSchedule) At(round int) *Graph {
	epoch := round / s.period
	if epoch == 0 || s.fraction == 0 {
		return s.base
	}
	if epoch == s.lastEpoch && s.lastGraph != nil {
		return s.lastGraph
	}
	rng := core.NewRand(core.SplitSeed(s.seed, uint64(epoch)))
	n := s.base.N()
	b := NewBuilder(s.base.Name(), n)
	for _, e := range s.base.Edges() {
		u, v := e[0], e[1]
		if rng.Float64() < s.fraction {
			v = core.NodeID(rng.IntN(n)) // self-loops/duplicates dropped by the builder
		}
		b.AddEdge(u, v)
	}
	s.lastEpoch, s.lastGraph = epoch, b.Build()
	return s.lastGraph
}

// ChurnSchedule models node churn: time is cut into blocks of blockLen
// rounds, and in every block after the first each node is independently
// down with probability rate. A down node keeps its ID but loses all its
// edges; when it comes back up at a block boundary it rejoins as a fresh
// machine, which the engine reports through ResetAt.
type ChurnSchedule struct {
	base     *Graph
	rate     float64
	blockLen int
	seed     uint64

	lastBlock int
	lastGraph *Graph
}

var (
	_ Dynamic = (*ChurnSchedule)(nil)
	_ Churner = (*ChurnSchedule)(nil)
)

// NewChurn returns a churn schedule over base. rate must be in [0, 1)
// and blockLen (the session granularity in rounds) positive.
func NewChurn(base *Graph, rate float64, blockLen int, seed uint64) *ChurnSchedule {
	if !(rate >= 0 && rate < 1) { // NaN fails it too
		panic(fmt.Sprintf("graph: churn rate %v outside [0, 1)", rate))
	}
	if blockLen < 1 {
		panic("graph: churn block length must be positive")
	}
	return &ChurnSchedule{base: base, rate: rate, blockLen: blockLen,
		seed: seed, lastBlock: -1}
}

// Name implements Dynamic.
func (s *ChurnSchedule) Name() string {
	return fmt.Sprintf("%s+churn-p%.2f-t%d", s.base.Name(), s.rate, s.blockLen)
}

// down reports whether node v is churned out during the given block.
// Block 0 starts with every node up.
func (s *ChurnSchedule) down(v core.NodeID, block int) bool {
	if block == 0 {
		return false
	}
	h := core.SplitSeed(s.seed, uint64(block)*uint64(s.base.N())+uint64(v))
	return float64(h>>11)/(1<<53) < s.rate
}

// At implements Dynamic: base minus every edge touching a down node.
func (s *ChurnSchedule) At(round int) *Graph {
	block := round / s.blockLen
	if block == 0 || s.rate == 0 {
		return s.base
	}
	if block == s.lastBlock && s.lastGraph != nil {
		return s.lastGraph
	}
	s.lastBlock = block
	s.lastGraph = filterEdges(s.base, func(e [2]core.NodeID) bool {
		return !s.down(e[0], block) && !s.down(e[1], block)
	})
	return s.lastGraph
}

// ResetAt implements Churner: the nodes that were down in the previous
// block and are up again in this round's block. Non-empty only at block
// boundaries.
func (s *ChurnSchedule) ResetAt(round int) []core.NodeID {
	if round == 0 || round%s.blockLen != 0 || s.rate == 0 {
		return nil
	}
	block := round / s.blockLen
	var out []core.NodeID
	for v := 0; v < s.base.N(); v++ {
		id := core.NodeID(v)
		if s.down(id, block-1) && !s.down(id, block) {
			out = append(out, id)
		}
	}
	return out
}

// GrowSchedule is a grow-then-stabilize preferential-attachment
// schedule: nodes m+1..n-1 start isolated and join one at a time, every
// period rounds, each attaching m edges to existing nodes drawn
// proportionally to degree (Barabási–Albert). Once every node has
// joined, the topology is stable for the rest of the run.
type GrowSchedule struct {
	n, m, period int
	seed         uint64
	targets      [][]core.NodeID // attachment targets per joining node

	lastJoined int
	lastGraph  *Graph
}

var _ Dynamic = (*GrowSchedule)(nil)

// NewGrow returns a grow-then-stabilize schedule on n nodes with
// attachment degree m, one join every period rounds. The first m+1 nodes
// form the initial clique at round 0.
func NewGrow(n, m, period int, seed uint64) *GrowSchedule {
	if m < 1 || n < m+2 {
		panic(fmt.Sprintf("graph: grow needs 1 <= m and n >= m+2, got n=%d m=%d", n, m))
	}
	if period < 1 {
		panic("graph: grow period must be positive")
	}
	return &GrowSchedule{
		n: n, m: m, period: period, seed: seed,
		targets:    paTargets(n, m, core.NewRand(seed)),
		lastJoined: -1,
	}
}

// Name implements Dynamic.
func (s *GrowSchedule) Name() string {
	return fmt.Sprintf("grow-pa-%d-m%d-t%d", s.n, s.m, s.period)
}

// Joined returns how many nodes are part of the topology at the given
// round (the remaining n-Joined nodes are still isolated).
func (s *GrowSchedule) Joined(round int) int {
	joined := s.m + 1 + round/s.period
	if joined > s.n {
		joined = s.n
	}
	return joined
}

// At implements Dynamic.
func (s *GrowSchedule) At(round int) *Graph {
	joined := s.Joined(round)
	if joined == s.lastJoined && s.lastGraph != nil {
		return s.lastGraph
	}
	m0 := s.m + 1
	b := NewBuilder(s.Name(), s.n)
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	for j := m0; j < joined; j++ {
		for _, t := range s.targets[j] {
			b.AddEdge(core.NodeID(j), t)
		}
	}
	s.lastJoined, s.lastGraph = joined, b.Build()
	return s.lastGraph
}
