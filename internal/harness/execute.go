package harness

import (
	"fmt"
	"slices"
	"sync"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/gossip/broadcast"
	"algossip/internal/gossip/ispread"
	"algossip/internal/gossip/tag"
	"algossip/internal/gossip/uncoded"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// SelectorKind names a communication model.
type SelectorKind int

const (
	// SelUniform is uniform gossip (Definition 1).
	SelUniform SelectorKind = iota + 1
	// SelRoundRobin is round-robin / quasirandom gossip (Definition 2).
	SelRoundRobin
)

// String returns the selector name.
func (s SelectorKind) String() string {
	if s == SelRoundRobin {
		return "round-robin"
	}
	return "uniform"
}

func (s SelectorKind) build(g *graph.Graph) sim.PartnerSelector {
	if s == SelRoundRobin {
		return sim.NewRoundRobin(g)
	}
	return sim.NewUniform(g)
}

// GossipSpec declares one gossip measurement: the topology plus every
// protocol knob. Zero fields default to the paper's canonical
// configuration (synchronous time, EXCHANGE, GF(2), uniform selector).
type GossipSpec struct {
	// Graph is the topology.
	Graph *graph.Graph
	// Model is the time model (default Synchronous).
	Model core.TimeModel
	// K is the number of messages.
	K int
	// Q is the field order (default 2, which selects the fast bitset
	// backend; stopping-time behaviour only improves with larger q).
	Q int
	// Action is the contact direction (default Exchange). PUSH and PULL
	// are for uniform AG and the uncoded baseline; TAG's Phase 2 is an
	// EXCHANGE with the tree parent.
	Action core.Action
	// Selector is the communication model (default uniform). Round-robin
	// is for uniform AG and the uncoded baseline; a tree protocol's Phase 1
	// is its communication model.
	Selector SelectorKind
	// SingleSource, when true, seeds all k messages at node 0 instead of
	// round-robin across nodes.
	SingleSource bool
	// PayloadLen, when positive, runs the simulation with real r-symbol
	// payloads (random contents drawn from a dedicated seed stream)
	// instead of rank-only coefficient tracking — the configuration that
	// exercises the bulk combine kernels end to end. Uniform AG only.
	PayloadLen int
	// LossRate drops each transmitted packet with this probability
	// (failure injection; uniform AG only, any coding layout, serial or
	// sharded).
	LossRate float64
	// GenSize, when positive, runs uniform AG with generation-based
	// coding (rlnc.GenConfig): the k messages are split into ⌈k/GenSize⌉
	// independently coded generations, capping per-packet coefficient
	// overhead and decode cost at the generation size — the configuration
	// that scales to n ≥ 10^5. Must not exceed K (typed error
	// rlnc.GenSizeError otherwise). Zero is the paper's protocol, one
	// generation of size K; GenSize == K runs that same trajectory and
	// differs only in the reported protocol name and message size (the
	// generation tag). Uniform AG only; combines with every other uniform-AG
	// knob (action, loss, payload, dynamics, adversary, classes, shards).
	GenSize int
	// Shards, when positive, runs the trial through the sharded
	// round-parallel engine (sim.WithShards): node wakeups fan out over
	// this many workers inside one round (and so does the commit, by
	// receiver), with per-node RNG streams and a per-receiver delivery
	// order keeping the trajectory byte-identical for every positive
	// shard count. The sharded trajectory differs from the
	// classic serial one (Shards == 0) for the same seed. Uniform AG,
	// synchronous model only.
	Shards int
	// Dynamics applies a time-varying topology schedule over Graph
	// (nil = static). Supported for uniform AG and the uncoded baseline;
	// tree-based protocols need a static topology.
	Dynamics *Dynamics
	// Adversary declares a Byzantine node population (nil = all honest).
	// Uniform AG on a static topology only, classic engine only: the
	// Byzantine set draws from seed stream 13 of the trial seed, and
	// initial messages are seeded round-robin across honest nodes (a
	// Byzantine node holding the only copy of a message would never
	// spread it). Receivers verify the coefficients on the wire plus the
	// payload: K + r symbols per packet, GenSize + r with GenSize set.
	Adversary *Adversary
	// Classes declares heterogeneous node capabilities (nil = uniform).
	// Same support envelope as Adversary; class membership draws from
	// stream 14, straggler service times from stream 15.
	Classes *Classes
	// MaxRounds overrides the engine's round budget (default generous).
	MaxRounds int
	// Observer, when set, receives per-node completion events during the
	// run, from whichever protocol it is (for TAG: a node reaching rank k,
	// not its joining the tree). Observers must be safe for
	// the single simulation goroutine that invokes them; a fresh observer
	// per trial keeps parallel pools race-free.
	Observer sim.Observer
	// Lean skips the O(n) per-node completion detail in the Outcome —
	// for big sweeps that only read Rounds, it keeps ResultSets and
	// checkpoint lines a few dozen bytes per trial. Trajectories are
	// unaffected.
	Lean bool
}

// Normalize fills zero fields with the canonical defaults.
func (s GossipSpec) Normalize() GossipSpec {
	if s.Model == 0 {
		s.Model = core.Synchronous
	}
	if s.Q == 0 {
		s.Q = 2
	}
	if s.Action == 0 {
		s.Action = core.Exchange
	}
	if s.Selector == 0 {
		s.Selector = SelUniform
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 1 << 21
	}
	return s
}

// RLNCConfig returns the codec configuration for the spec: rank-only by
// default, payload-carrying when PayloadLen is set. It builds the field,
// so it wants a spec validate has passed (an unsupported Q panics here).
func (s GossipSpec) RLNCConfig() rlnc.Config {
	return rlnc.Config{Field: gf.MustNew(s.Q), K: s.K,
		PayloadLen: s.PayloadLen, RankOnly: s.PayloadLen == 0}
}

// Assign returns the initial message placement.
func (s GossipSpec) Assign() []core.NodeID {
	if s.SingleSource {
		return algebraic.SingleAssign(s.K, 0)
	}
	return algebraic.RoundRobinAssign(s.K, s.Graph.N())
}

// Outcome is everything one trial measures: the stopping time plus the
// per-node and per-packet observability the protocols expose.
type Outcome struct {
	// Result is the engine's run summary (rounds, timeslots, completion).
	Result sim.Result `json:"result"`
	// NodeDoneRounds holds, per node, the round at which it completed.
	NodeDoneRounds []int `json:"node_done_rounds,omitempty"`
	// Traffic is the aggregated transmission accounting (for TAG it
	// includes the spanning-tree protocol's messages).
	Traffic gossip.Traffic `json:"traffic"`
	// MessageBits is the wire size of one message on the wire.
	MessageBits int `json:"message_bits"`
	// TreeRounds is t(S) for TAG runs (-1 otherwise or when untracked).
	TreeRounds int `json:"tree_rounds"`
	// TreeDepth and TreeDiameter describe the tree S built (-1 if none).
	TreeDepth    int `json:"tree_depth"`
	TreeDiameter int `json:"tree_diameter"`
}

// feature is one optional capability of a trial: when it is in force,
// which protocols take it, and what the others answer. The two tables of
// DESIGN.md "What combines with what" are features and refusedPairs
// rendered through validate (TestDesignCombinationTable), and
// FuzzGossipSpec runs each cell they accept.
type feature struct {
	name    string
	inForce func(GossipSpec) bool
	takes   []Protocol // nil: every protocol
	why     string     // the refusal's reason, for a protocol outside takes
}

const (
	whyOnlyAG = "TAG's algebraic phase and the uncoded baseline are measured rank-only at whole-k coding, lossless, honest and serial (Theorem 4)"
	whyTree   = "the tree protocols fix who talks to whom and how: Phase 1's protocol is the communication model and Phase 2 is an EXCHANGE with the tree parent (Section 4)"
)

var (
	onlyAG       = []Protocol{ProtocolUniformAG}
	agAndUncoded = []Protocol{ProtocolUniformAG, ProtocolUncoded}

	featGenerations = feature{"generations", func(s GossipSpec) bool { return s.GenSize > 0 }, onlyAG, whyOnlyAG}
	featLoss        = feature{"loss", func(s GossipSpec) bool { return s.LossRate > 0 }, onlyAG, whyOnlyAG}
	featDynamics    = feature{"dynamics", func(s GossipSpec) bool { return !s.Dynamics.IsStatic() }, agAndUncoded,
		"the spanning tree of Phase 1 is only meaningful on the graph it was built on"}
	featAdversary = feature{"adversary / classes", func(s GossipSpec) bool { return !s.Adversary.IsNone() || !s.Classes.IsNone() }, onlyAG, whyOnlyAG}
	featShards    = feature{"shards", func(s GossipSpec) bool { return s.Shards > 0 }, onlyAG, whyOnlyAG}
	featPayload   = feature{"payload", func(s GossipSpec) bool { return s.PayloadLen > 0 }, onlyAG, whyOnlyAG}
	featAsync     = feature{"asynchronous", func(s GossipSpec) bool { return s.Model == core.Asynchronous }, nil, ""}
	featAction    = feature{"action", func(s GossipSpec) bool { return s.Action == core.Push || s.Action == core.Pull }, agAndUncoded, whyTree}
	featSelector  = feature{"round-robin selector", func(s GossipSpec) bool { return s.Selector == SelRoundRobin }, agAndUncoded, whyTree}

	features = []*feature{&featGenerations, &featLoss, &featDynamics, &featAdversary, &featShards, &featPayload, &featAsync, &featAction, &featSelector}

	// refusedPairs do not run together under any protocol.
	refusedPairs = []struct {
		a, b *feature
		why  string
	}{
		{&featShards, &featAsync, "sharding fans out the wake phase of a synchronous round; the asynchronous model has one wakeup per timeslot"},
		{&featAdversary, &featShards, "the sharded send path implements only the honest emit and the class RNG is one serial stream"},
		{&featAdversary, &featDynamics, "straggler service state and honest-only seeding are undefined across a churn reset"},
	}
)

// validate is the one refusal screen: everything a command line, a /spec
// body or a library caller can set that cannot run is refused here and
// nowhere else. Execute calls it per trial and Spec.Expand per cell, so a
// spec that cannot run is reported before the pool or a listener starts.
// Every word is screened: each enum must be a known value, each count
// non-negative, each rate in range (NaN fails every range) and each
// declaration well formed. A zero proto means uniform AG. The spec goes
// by value through the predicates so that Execute's copy stays off the
// heap, nothing is built (not the field, not a dynamic schedule), and the
// accept path allocates nothing.
func (s GossipSpec) validate(proto Protocol) error {
	if s.Graph == nil {
		return fmt.Errorf("harness: nil graph")
	}
	if s.K <= 0 {
		return fmt.Errorf("harness: k must be positive, got %d", s.K)
	}
	if proto == 0 {
		proto = ProtocolUniformAG
	}
	if proto < ProtocolUniformAG || proto > ProtocolUncoded {
		return fmt.Errorf("harness: unknown protocol %v", proto)
	}
	switch s.Model {
	case 0, core.Synchronous, core.Asynchronous:
	default:
		return fmt.Errorf("harness: unknown time model %v (known: synchronous, asynchronous)", s.Model)
	}
	switch s.Action {
	case 0, core.Push, core.Pull, core.Exchange:
	default:
		return fmt.Errorf("harness: unknown action %v (known: PUSH, PULL, EXCHANGE)", s.Action)
	}
	switch s.Selector {
	case 0, SelUniform, SelRoundRobin:
	default:
		return fmt.Errorf("harness: unknown selector %d (known: %d uniform, %d round-robin)", s.Selector, SelUniform, SelRoundRobin)
	}
	if s.Q != 0 {
		if err := gf.CheckOrder(s.Q); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	if s.GenSize < 0 || s.GenSize > s.K {
		return fmt.Errorf("harness: %w", &rlnc.GenSizeError{GenSize: s.GenSize, K: s.K})
	}
	if s.PayloadLen < 0 {
		return fmt.Errorf("harness: payload length %d is negative", s.PayloadLen)
	}
	if s.Shards < 0 {
		return fmt.Errorf("harness: shard count %d is negative", s.Shards)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("harness: round budget %d is negative", s.MaxRounds)
	}
	if !(s.LossRate >= 0 && s.LossRate < 1) { // NaN fails it too
		return fmt.Errorf("harness: loss rate %v outside [0, 1)", s.LossRate)
	}
	if err := s.Dynamics.validate(s.Graph.N()); err != nil {
		return err
	}
	if err := s.Adversary.validate(); err != nil {
		return err
	}
	if err := s.Classes.validate(); err != nil {
		return err
	}
	for _, f := range features {
		if f.takes != nil && !slices.Contains(f.takes, proto) && f.inForce(s) {
			return fmt.Errorf("harness: %s unsupported for protocol %v (takes it: %v): %s", f.name, proto, f.takes, f.why)
		}
	}
	for _, p := range refusedPairs {
		if p.a.inForce(s) && p.b.inForce(s) {
			return fmt.Errorf("harness: %s and %s do not combine (%s)", p.a.name, p.b.name, p.why)
		}
	}
	return nil
}

// Execute runs one trial of the given protocol and collects its Outcome.
// It is THE single launch path: the root package's Run/RunDetailed, every
// experiment artifact, the worker pool and the fabric workers all go
// through it, so a (GossipSpec, Protocol, seed) triple replays one fixed
// trajectory everywhere. The seed-stream layout (protocol RNG, tree RNG,
// engine RNG; stream 10 feeds the dynamic-topology schedule, streams
// 13–15 the adversarial and heterogeneous-class draws) is pinned by the
// conformance suite — do not renumber.
//
// A uniform-AG or TAG trial takes a finished protocol of its shape off
// the process's idle list (TakeIdle) and gives its own back when it is
// done, so a call after one of the same shape, whatever ran in between,
// resets that trial's decoders and shard core instead of building them:
// it allocates a small constant, whatever n, k and r, and its cost is the
// run, not the protocol's construction. The outcome is the same either
// way. Execute is safe for concurrent use.
func Execute(spec GossipSpec, proto Protocol, seed uint64) (Outcome, error) {
	return execute(spec, proto, seed, true)
}

// idleStates bounds the idle list: enough for every cell of a paper
// table's sweep on a pool of a few workers. A pool of more workers than
// this on one shape builds afresh past it.
const idleStates = 16

// idle is the process's one list of finished algebraic protocols (a
// uniform-AG trial's, TAG's Phase 2, a Disseminate call's) that no trial
// runs on, least recently returned first. Not a sync.Pool, whose contents
// every collection empties: then whether a trial reused state, and what
// it allocated, would follow the collector's timing.
var idle = struct {
	sync.Mutex
	ps []*algebraic.Protocol // never longer than idleStates, so appends never grow it
}{ps: make([]*algebraic.Protocol, 0, idleStates)}

// TakeIdle removes from the idle list the most recently returned protocol
// that fits n nodes and cfg (algebraic.Protocol.Fits), for
// algebraic.Renew to take over. With none, a sharded trial takes the most
// recent shard core of n nodes (algebraic.Protocol.SplitShardCore) and
// its protocol stays listed; else it returns nil, a fresh build.
func TakeIdle(n int, cfg algebraic.Config, sharded bool) *algebraic.Protocol {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.ps) - 1; i >= 0; i-- {
		if p := idle.ps[i]; p.Fits(n, cfg) {
			idle.ps = slices.Delete(idle.ps, i, i+1)
			return p
		}
	}
	for i := len(idle.ps) - 1; sharded && i >= 0; i-- {
		if sc := idle.ps[i].SplitShardCore(n); sc != nil {
			return sc
		}
	}
	return nil
}

// GiveIdle puts p, whose run is over, on the idle list, evicting the
// least recently returned protocol past idleStates.
func GiveIdle(p *algebraic.Protocol) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.ps) == idleStates {
		idle.ps = slices.Delete(idle.ps, 0, 1)
	}
	idle.ps = append(idle.ps, p)
}

// execute is Execute, on a protocol from the idle list when reuse is set
// and built afresh when not; the outcome is the same either way.
func execute(spec GossipSpec, proto Protocol, seed uint64, reuse bool) (Outcome, error) {
	if err := spec.validate(proto); err != nil {
		return Outcome{}, err
	}
	spec = spec.Normalize()
	g := spec.Graph
	codec := spec.RLNCConfig()
	out := Outcome{
		MessageBits: gossip.MessageBits(codec),
		TreeRounds:  -1, TreeDepth: -1, TreeDiameter: -1,
	}

	// run is the protocol under the engine and ledger the round ledger it
	// counts into, read back after the run (for TAG the algebraic phase's,
	// plus tagRun's tree and summed traffic). The observer goes on the
	// ledger before seeding: a node whose seeds complete it is done at
	// round 0.
	var run sim.Protocol
	var ledger *gossip.Progress
	var tagRun *tag.Protocol
	var engineStream uint64
	var kept *algebraic.Protocol // given back to the idle list after the run
	switch {
	case proto == 0 || proto == ProtocolUniformAG:
		cfg := algebraic.Config{RLNC: codec, GenSize: spec.GenSize,
			Action: spec.Action, LossRate: spec.LossRate}
		assign := spec.Assign()
		if !spec.Adversary.IsNone() || !spec.Classes.IsNone() {
			// Adversarial/heterogeneous trials draw node profiles from
			// dedicated seed streams (13 adversary set, 14 class set, 15
			// straggler service times), so the protocol stream (1) and
			// every non-adversarial trajectory stay byte-identical, and a
			// fixed-seed adversarial trial replays exactly on any worker
			// count.
			cfg.Traits = buildTraits(g.N(), spec.Adversary, spec.Classes,
				core.SplitSeed(seed, 13), core.SplitSeed(seed, 14))
			cfg.TraitSeed = core.SplitSeed(seed, 15)
			if !spec.Adversary.IsNone() {
				honest := algebraic.HonestNodes(cfg.Traits)
				if spec.SingleSource {
					assign = algebraic.SingleAssign(spec.K, honest[0])
				} else {
					assign = algebraic.RoundRobinAssignOver(spec.K, honest)
				}
			}
		}
		var prev *algebraic.Protocol
		if reuse {
			prev = TakeIdle(g.N(), cfg, spec.Shards > 0)
		}
		p, err := algebraic.Renew(prev, g, spec.Model, spec.Selector.build(g), cfg,
			core.NewRand(core.SplitSeed(seed, 1)))
		if err != nil {
			return out, err
		}
		if reuse {
			kept = p
		}
		p.SetObserver(spec.Observer)
		// Payload contents draw from their own stream (11) so rank-only
		// trajectories are untouched when PayloadLen is zero.
		var msgs []rlnc.Message
		if spec.PayloadLen > 0 {
			msgs = algebraic.RandomMessages(codec, core.NewRand(core.SplitSeed(seed, 11)))
		}
		if err := p.SeedAll(assign, msgs); err != nil {
			return out, err
		}
		if spec.Shards > 0 {
			// Stream 12 feeds the per-node RNG streams of sharded
			// execution (the engine stream, 2, stays reserved even though
			// the sharded synchronous loop never draws from it);
			// retirement stays off on dynamic topologies, where inertness
			// is not monotone.
			if err := p.EnableSharded(core.SplitSeed(seed, 12), spec.Dynamics.IsStatic()); err != nil {
				return out, err
			}
		}
		out.MessageBits = p.MessageBits()
		run, ledger, engineStream = p, &p.Progress, 2
	case proto == ProtocolTAGRR || proto == ProtocolTAGUniform || proto == ProtocolTAGIS:
		var stp tag.SpanningTree
		switch proto {
		case ProtocolTAGRR:
			stp = broadcast.New(g, spec.Model, sim.NewRoundRobin(g),
				broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 3)))
		case ProtocolTAGUniform:
			stp = broadcast.New(g, spec.Model, sim.NewUniform(g),
				broadcast.Config{Origin: 0}, core.NewRand(core.SplitSeed(seed, 3)))
		default:
			stp = ispread.New(g, spec.Model, ispread.Config{Root: 0},
				core.NewRand(core.SplitSeed(seed, 3)))
		}
		var prev *algebraic.Protocol
		if reuse {
			prev = TakeIdle(g.N(), algebraic.Config{RLNC: codec}, false)
		}
		p, err := tag.Renew(prev, g, spec.Model, stp, codec,
			core.NewRand(core.SplitSeed(seed, 4)))
		if err != nil {
			return out, err
		}
		ag := p.Algebraic()
		if reuse {
			kept = ag
		}
		ag.SetObserver(spec.Observer)
		if err := ag.SeedAll(spec.Assign(), nil); err != nil {
			return out, err
		}
		run, ledger, tagRun, engineStream = p, &ag.Progress, p, 5
	default: // ProtocolUncoded, the one protocol validate leaves
		p := uncoded.New(g, spec.Model, spec.Selector.build(g),
			uncoded.Config{K: spec.K, Action: spec.Action},
			core.NewRand(core.SplitSeed(seed, 1)))
		p.SetObserver(spec.Observer)
		p.SeedAll(spec.Assign())
		out.MessageBits = gossip.UncodedMessageBits(spec.K, 1, spec.Q)
		run, ledger, engineStream = p, &p.Progress, 2
	}

	opts := []sim.Option{sim.WithMaxRounds(spec.MaxRounds)}
	if spec.Shards > 0 {
		opts = append(opts, sim.WithShards(spec.Shards))
	}
	var eng *sim.Engine
	if spec.Dynamics.IsStatic() {
		eng = sim.New(g, spec.Model, run,
			core.SplitSeed(seed, engineStream), opts...)
	} else {
		dyn := spec.Dynamics.build(g, core.SplitSeed(seed, 10))
		eng = sim.NewDynamic(dyn, spec.Model, run,
			core.SplitSeed(seed, engineStream), opts...)
	}
	res, err := eng.Run()
	out.Result = res
	if err == nil {
		if !spec.Lean {
			out.NodeDoneRounds = ledger.DoneRounds()
		}
		out.Traffic = ledger.Traffic()
		if tagRun != nil {
			out.Traffic = tagRun.Traffic()
			out.TreeRounds = tagRun.TreeRound()
			if tree, ok := tagRun.TreeProtocol().Tree(); ok {
				out.TreeDepth = tree.Depth()
				out.TreeDiameter = tree.Diameter()
			}
		}
	}
	// Not deferred: a trial that panics leaves its protocol to no one.
	// One that returns an error before its run drops it too.
	if kept != nil {
		GiveIdle(kept)
	}
	return out, err
}

// Broadcast runs one broadcast trial and returns the stopping time and the
// induced spanning tree.
func Broadcast(g *graph.Graph, model core.TimeModel, sel SelectorKind, seed uint64) (sim.Result, *graph.Tree, error) {
	p := broadcast.New(g, model, sel.build(g), broadcast.Config{Origin: 0},
		core.NewRand(core.SplitSeed(seed, 6)))
	res, err := sim.New(g, model, p, core.SplitSeed(seed, 7)).Run()
	if err != nil {
		return res, nil, err
	}
	tree, _ := p.Tree()
	return res, tree, nil
}

// ISpread runs one IS trial in the given mode and returns stopping time and
// the induced tree (TreeMode).
func ISpread(g *graph.Graph, model core.TimeModel, mode ispread.Mode, seed uint64) (sim.Result, *graph.Tree, error) {
	p := ispread.New(g, model, ispread.Config{Root: 0, Mode: mode},
		core.NewRand(core.SplitSeed(seed, 8)))
	res, err := sim.New(g, model, p, core.SplitSeed(seed, 9)).Run()
	if err != nil {
		return res, nil, err
	}
	tree, _ := p.Tree()
	return res, tree, nil
}
