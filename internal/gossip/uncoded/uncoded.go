// Package uncoded implements the store-and-forward baseline: nodes gossip
// whole initial messages instead of linear combinations. On contact, the
// sender transmits one uniformly random message from its store (the
// classic "random useless-prone" rumor mongering that motivates network
// coding — Deb et al. showed the coupon-collector effect makes this a
// factor Θ(log n) slower than RLNC on the complete graph for k = n).
//
// It exists as an ablation baseline (experiment A3): identical scheduling,
// identical message budget per contact, no coding.
package uncoded

import (
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/linalg"
	"algossip/internal/sim"
)

// Config parameterizes the uncoded baseline.
type Config struct {
	// K is the number of distinct initial messages.
	K int
	// Action is the flow direction on contact (default Exchange, matching
	// the algebraic-gossip configuration it is compared against).
	Action core.Action
}

// delivery is one staged message transfer (synchronous model).
type delivery struct {
	to  core.NodeID
	msg int
}

// Protocol is the store-and-forward gossip state machine; a node is done
// (gossip.Progress) once it knows all K messages.
type Protocol struct {
	gossip.Progress
	sel sim.PartnerSelector
	rng *rand.Rand
	cfg Config

	known    []linalg.BitVec // per node, bitset of known message indices
	knownCnt []int
	initial  [][]int // per-node initial message indices, replayed on churn reset
	staged   []delivery
}

var (
	_ sim.Protocol      = (*Protocol)(nil)
	_ sim.TopologyAware = (*Protocol)(nil)
)

// New constructs the uncoded protocol; seed initial messages with Seed.
func New(g *graph.Graph, model core.TimeModel, sel sim.PartnerSelector, cfg Config, rng *rand.Rand) *Protocol {
	if cfg.Action == 0 {
		cfg.Action = core.Exchange
	}
	n := g.N()
	p := &Protocol{
		Progress: gossip.NewProgress(n, model),
		sel:      sel,
		rng:      rng,
		cfg:      cfg,
		known:    make([]linalg.BitVec, n),
		knownCnt: make([]int, n),
		initial:  make([][]int, n),
	}
	for v := 0; v < n; v++ {
		p.known[v] = linalg.NewBitVec(cfg.K)
	}
	return p
}

// Seed places message index msg at node v.
func (p *Protocol) Seed(v core.NodeID, msg int) {
	if msg < 0 || msg >= p.cfg.K {
		panic(fmt.Sprintf("uncoded: message %d out of range [0,%d)", msg, p.cfg.K))
	}
	p.initial[v] = append(p.initial[v], msg)
	p.set(v, msg)
}

// SeedAll places message i at node assign[i].
func (p *Protocol) SeedAll(assign []core.NodeID) {
	for i, v := range assign {
		p.Seed(v, i)
	}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("uncoded-gossip(%s,%s)", p.sel.Name(), p.cfg.Action)
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
		p.send(v, u)
	}
	if back {
		p.send(u, v)
	}
}

// send transmits one uniformly random known message from `from` to `to`.
func (p *Protocol) send(from, to core.NodeID) {
	if p.knownCnt[from] == 0 {
		return
	}
	msg := p.randomKnown(from)
	p.Counts.Sent++
	if p.Model == core.Synchronous {
		p.staged = append(p.staged, delivery{to: to, msg: msg})
		return
	}
	p.learn(to, msg)
}

// OnTopologyChange implements sim.TopologyAware: partner selection
// re-targets to the new graph, and churned-out nodes forget everything
// except their initial seeds — store-and-forward has no subspace to keep,
// which is exactly the fragility the dynamic experiments measure against
// RLNC.
func (p *Protocol) OnTopologyChange(ev sim.TopologyEvent) {
	// Advance the clock first (the event precedes BeginRound(ev.Round)),
	// so reset bookkeeping stamps the rejoin round in both time models.
	p.Round = ev.Round
	ev.Retarget(p.sel)
	for _, v := range ev.Reset {
		p.known[v] = linalg.NewBitVec(p.cfg.K)
		p.knownCnt[v] = 0
		p.Unmark(v)
		for _, msg := range p.initial[v] {
			p.set(v, msg)
		}
	}
}

// randomKnown samples a uniformly random set bit of from's known set.
func (p *Protocol) randomKnown(from core.NodeID) int {
	target := p.rng.IntN(p.knownCnt[from])
	seen := 0
	for i := 0; i < p.cfg.K; i++ {
		if p.known[from].Get(i) {
			if seen == target {
				return i
			}
			seen++
		}
	}
	panic("uncoded: known count out of sync")
}

// learn ingests a received message, counting it against traffic.
func (p *Protocol) learn(to core.NodeID, msg int) {
	if p.known[to].Get(msg) {
		p.Counts.Useless++
		return
	}
	p.Counts.Helpful++
	p.set(to, msg)
}

// set installs a message without touching traffic counters (seeding).
func (p *Protocol) set(to core.NodeID, msg int) {
	if p.known[to].Get(msg) {
		return
	}
	p.known[to].Set(msg)
	p.knownCnt[to]++
	if p.knownCnt[to] == p.cfg.K {
		p.MarkDone(to)
	}
}

// EndRound implements sim.Protocol.
func (p *Protocol) EndRound(int) {
	for _, d := range p.staged {
		p.learn(d.to, d.msg)
	}
	p.staged = p.staged[:0]
}
