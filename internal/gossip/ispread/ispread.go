// Package ispread implements the information-spreading protocol IS of
// Censor-Hillel & Shachnai (SODA 2011) at the level of detail the paper
// (Section 6) uses it: each node maintains a monotone n-bit string
// recording the nodes it has heard from, directly or indirectly; strings
// start as unit vectors and are unioned on every contact (EXCHANGE). Steps
// alternate between a randomized choice (uniform neighbor) and a
// deterministic choice driven by the node's knowledge: contact a neighbor
// the node has *not yet heard from*. The deterministic step is what defeats
// bottlenecks such as the barbell bridge — once a clique is internally
// saturated, the bridge endpoint's only unheard neighbor is across the
// bridge, so it is contacted immediately rather than with probability
// 2/n.
//
// The spanning tree is extracted exactly as the paper describes: node v
// declares as parent the first node u from which it received a message
// that flipped v's most significant bit — the bit of the designated root —
// from zero to one. The tree is therefore rooted at the root node, and
// Done (tree mode) holds once every node has heard from the root.
package ispread

import (
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/linalg"
	"algossip/internal/sim"
)

// Mode selects the protocol's completion criterion.
type Mode int

const (
	// TreeMode finishes when every node has a parent (heard from the
	// root) — all TAG needs from Phase 1.
	TreeMode Mode = iota + 1
	// FullSpreadMode finishes when every node's string is all ones (full
	// information spreading, the task of Theorem 6).
	FullSpreadMode
)

// Config parameterizes an IS run.
type Config struct {
	// Root is the node whose bit acts as the most significant bit; the
	// induced spanning tree is rooted here.
	Root core.NodeID
	// Mode is the completion criterion (default TreeMode).
	Mode Mode
}

// union is one staged string transfer: `to` receives `bits` from `from`.
type union struct {
	to, from core.NodeID
	bits     linalg.BitVec
}

// Protocol is the IS state machine implementing sim.Protocol; a node is
// done (gossip.Progress) once it has heard from the root, the root from
// round 0.
type Protocol struct {
	gossip.Progress
	g   *graph.Graph
	rng *rand.Rand
	cfg Config

	bits     []linalg.BitVec // heard-from sets, one n-bit string per node
	parent   []core.NodeID
	steps    []int // per-node step counter for the random/deterministic alternation
	cursor   []int // per-node round-robin cursor for deterministic steps
	staged   []union
	heardCnt []int // popcount cache per node
	fullCnt  int   // number of nodes with an all-ones string
}

var _ sim.Protocol = (*Protocol)(nil)

// New constructs an IS protocol over g.
func New(g *graph.Graph, model core.TimeModel, cfg Config, rng *rand.Rand) *Protocol {
	if cfg.Mode == 0 {
		cfg.Mode = TreeMode
	}
	n := g.N()
	p := &Protocol{
		Progress: gossip.NewProgress(n, model),
		g:        g,
		rng:      rng,
		cfg:      cfg,
		bits:     make([]linalg.BitVec, n),
		parent:   make([]core.NodeID, n),
		steps:    make([]int, n),
		cursor:   make([]int, n),
		heardCnt: make([]int, n),
	}
	for v := 0; v < n; v++ {
		p.bits[v] = linalg.NewBitVec(n)
		p.bits[v].Set(v)
		p.heardCnt[v] = 1
		p.parent[v] = core.NilNode
		p.cursor[v] = rng.IntN(maxInt(1, g.Degree(core.NodeID(v))))
	}
	p.MarkDone(cfg.Root) // the root has heard from itself
	if n == 1 {
		p.fullCnt = 1
	}
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("ispread(root=%d)", p.cfg.Root) }

// OnWake implements sim.Protocol: even-numbered steps of each node choose a
// uniformly random neighbor; odd-numbered steps deterministically choose an
// unheard neighbor (falling back to round-robin when all neighbors have
// been heard). Contact is EXCHANGE: both strings are unioned.
func (p *Protocol) OnWake(v core.NodeID) {
	p.Wake()
	nb := p.g.Neighbors(v)
	if len(nb) == 0 {
		return
	}
	var u core.NodeID
	if p.steps[v]%2 == 0 {
		u = nb[p.rng.IntN(len(nb))]
	} else {
		u = p.deterministicPartner(v, nb)
	}
	p.steps[v]++
	p.exchange(v, u)
}

// deterministicPartner scans v's neighbor list cyclically for one v has not
// heard from; if every neighbor has been heard it advances round-robin.
func (p *Protocol) deterministicPartner(v core.NodeID, nb []core.NodeID) core.NodeID {
	start := p.cursor[v]
	for i := 0; i < len(nb); i++ {
		u := nb[(start+i)%len(nb)]
		if !p.bits[v].Get(int(u)) {
			p.cursor[v] = (start + i + 1) % len(nb)
			return u
		}
	}
	u := nb[start%len(nb)]
	p.cursor[v] = (start + 1) % len(nb)
	return u
}

// exchange transfers both strings (EXCHANGE). In the synchronous model the
// incoming strings are snapshots staged until EndRound.
func (p *Protocol) exchange(v, u core.NodeID) {
	p.Counts.Sent += 2 // EXCHANGE: one string each way
	if p.Model == core.Synchronous {
		p.staged = append(p.staged,
			union{to: u, from: v, bits: p.bits[v].Clone()},
			union{to: v, from: u, bits: p.bits[u].Clone()},
		)
		return
	}
	p.apply(u, v, p.bits[v])
	p.apply(v, u, p.bits[u])
}

// apply unions `bits` (from node `from`) into node `to`, assigning the
// parent if the root bit flips.
func (p *Protocol) apply(to, from core.NodeID, bits linalg.BitVec) {
	hadRoot := p.bits[to].Get(int(p.cfg.Root))
	p.bits[to].Or(bits)
	newCount := p.bits[to].OnesCount()
	if newCount == p.heardCnt[to] {
		p.Counts.Useless++
		return
	}
	p.Counts.Helpful++
	p.heardCnt[to] = newCount
	if !hadRoot && p.bits[to].Get(int(p.cfg.Root)) {
		p.parent[to] = from
		p.MarkDone(to)
	}
	if newCount == p.g.N() {
		p.fullCnt++
	}
}

// EndRound implements sim.Protocol.
func (p *Protocol) EndRound(int) {
	for _, s := range p.staged {
		p.apply(s.to, s.from, s.bits)
	}
	p.staged = p.staged[:0]
}

// Done implements sim.Protocol according to the configured Mode.
func (p *Protocol) Done() bool {
	if p.cfg.Mode == FullSpreadMode {
		return p.fullCnt == p.g.N()
	}
	return p.Progress.Done()
}

// Parent returns v's parent in the induced tree (NilNode until v hears
// from the root, and for the root itself).
func (p *Protocol) Parent(v core.NodeID) core.NodeID { return p.parent[v] }

// Tree returns the induced spanning tree once every node has heard from
// the root; the boolean reports availability.
func (p *Protocol) Tree() (*graph.Tree, bool) {
	if !p.Progress.Done() {
		return nil, false
	}
	return &graph.Tree{
		Root:   p.cfg.Root,
		Parent: append([]core.NodeID(nil), p.parent...),
	}, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
