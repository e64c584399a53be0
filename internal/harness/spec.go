package harness

import (
	"fmt"
	"strconv"
	"strings"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// Spec declares a full experiment grid: one protocol over one topology
// family across sizes, with a fixed number of trials per cell. It is the
// declarative unit all three binaries and the experiment runners share —
// a new scenario is a struct literal, not a new main().
type Spec struct {
	// Name labels the spec (used in progress output and checkpoints).
	Name string

	// Graph is the topology family name (see graph.FromName); one graph
	// is built per entry of Sizes. Ignored when Graphs is set.
	Graph string
	// Sizes are the requested node counts, one grid cell per entry.
	Sizes []int
	// Graphs supplies pre-built topologies instead of (Graph, Sizes) —
	// the escape hatch for runners that construct exotic graphs.
	Graphs []*graph.Graph

	// KMode picks k per cell from the actual node count: "half" (default),
	// "n", "sqrt", or "const:<v>". Ignored when Ks is set.
	KMode string
	// Ks supplies one explicit k per cell (must match the cell count).
	Ks []int

	// Protocol picks the dissemination protocol (default uniform AG).
	Protocol Protocol
	// Model is the time model (default Synchronous).
	Model core.TimeModel
	// Q is the field order (default 2).
	Q int
	// Action is the contact direction (default Exchange).
	Action core.Action
	// Selector is the communication model (default uniform).
	Selector SelectorKind
	// SingleSource seeds all messages at node 0 instead of round-robin.
	SingleSource bool
	// LossRate drops each packet with this probability (uniform AG only).
	LossRate float64
	// Dynamics applies a time-varying topology schedule over each cell's
	// graph (nil = static). Only uniform AG and the uncoded baseline
	// support dynamic topologies; the schedule randomness derives from
	// the per-trial seed, so the work-list stays deterministic.
	Dynamics *Dynamics
	// GenSize, when positive, runs uniform AG with generation-based
	// coding: ⌈k/GenSize⌉ independently coded generations per cell. The
	// size is validated against every cell's k at Expand time (typed
	// error rlnc.GenSizeError when it exceeds k).
	GenSize int
	// Shards, when positive, runs every trial through the sharded
	// round-parallel engine. Any positive count yields the same
	// trajectory (the fingerprint records only that sharded semantics
	// are in force, not the count), so this is an execution knob like
	// Runner.Parallel — raise it to spend cores inside one large-n trial
	// instead of across trials.
	Shards int
	// Adversary declares a Byzantine node population (nil = all honest).
	// Uniform AG only; the Byzantine set is drawn per trial from seed
	// stream 13, and initial messages are seeded at honest nodes only.
	Adversary *Adversary
	// Classes declares heterogeneous node capabilities — stragglers or
	// boosted bandwidth tiers (nil = uniform). Uniform AG only; class
	// membership draws from seed stream 14 and straggler service times
	// from stream 15 of the trial seed.
	Classes *Classes
	// MaxRounds caps each simulation (default generous).
	MaxRounds int
	// Lean skips the O(n) per-node completion detail in every Outcome —
	// the right setting for big sweeps that only read Rounds, since it
	// keeps ResultSets and checkpoint lines a few dozen bytes per trial.
	// Presentation-only: trajectories, rounds, and the work-list (and
	// therefore the checkpoint fingerprint) are unaffected.
	Lean bool

	// Fabric optionally names the distributed-fabric session this spec is
	// coordinated under (internal/fabric). It never influences the
	// work-list or any trajectory — merged fabric output is byte-identical
	// to a single-process run of the same spec — but it is recorded in the
	// fingerprint (appended as |fabric=<name> only when set, so every
	// pre-fabric checkpoint still resumes), which pins a coordinator's
	// checkpoint and its workers' result streams to one named session.
	Fabric string

	// Trials is the number of trials per cell (required, >= 1).
	Trials int
	// Seed roots all derived randomness. Identical (Spec, Seed) pairs
	// expand to identical work-lists with identical per-trial seeds.
	Seed uint64
	// TrialSeed overrides the per-trial seed derivation. The default,
	// SplitSeed(Seed, size*1000+trial), is the historical cmd/sweep
	// layout; runners that predate the harness pass their own layout to
	// keep fixed-seed outputs stable. The function must depend only on
	// its arguments, never on execution order.
	TrialSeed func(size, trial int) uint64 `json:"-"`
}

// Cell is one (graph, k) point of the expanded grid.
type Cell struct {
	// Graph is the built topology.
	Graph *graph.Graph
	// Size is the requested node count (may differ from Graph.N() for
	// families like grid that round to a feasible shape).
	Size int
	// K is the message count for this cell.
	K int
}

// Trial is one unit of work: a single simulation with a derived seed.
type Trial struct {
	// Index is the position in the deterministic work-list.
	Index int
	// Cell indexes the (graph, k) grid cell the trial belongs to.
	Cell int
	// Num is the trial number within its cell, 0..Trials-1.
	Num int
	// Seed is the fully derived per-trial seed.
	Seed uint64

	// Graph, Size and K denormalize the cell for convenience.
	Graph *graph.Graph
	Size  int
	K     int
}

// normalize fills the Spec's zero fields in place.
func (s *Spec) normalize() {
	if s.Protocol == 0 {
		s.Protocol = ProtocolUniformAG
	}
	if s.Model == 0 {
		s.Model = core.Synchronous
	}
	if s.KMode == "" {
		s.KMode = "half"
	}
	if s.TrialSeed == nil {
		seed := s.Seed
		s.TrialSeed = func(size, trial int) uint64 {
			return core.SplitSeed(seed, uint64(size*1000+trial))
		}
	}
}

// cells builds the (graph, k) grid. Graph construction draws from its own
// seed stream (999, the historical sweep layout), so trial workers stay
// pure.
func (s *Spec) cells() ([]Cell, error) {
	var cells []Cell
	switch {
	case len(s.Graphs) > 0:
		for _, g := range s.Graphs {
			cells = append(cells, Cell{Graph: g, Size: g.N()})
		}
	case len(s.Sizes) > 0:
		for _, n := range s.Sizes {
			g, err := graph.FromName(s.Graph, n, core.NewRand(core.SplitSeed(s.Seed, 999)))
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Graph: g, Size: n})
		}
	default:
		return nil, fmt.Errorf("harness: spec has neither Graphs nor Sizes")
	}
	if len(s.Ks) > 0 {
		if len(s.Ks) != len(cells) {
			return nil, fmt.Errorf("harness: %d Ks for %d cells", len(s.Ks), len(cells))
		}
		for i := range cells {
			cells[i].K = s.Ks[i]
		}
		return cells, nil
	}
	for i := range cells {
		k, err := PickK(s.KMode, cells[i].Graph.N())
		if err != nil {
			return nil, err
		}
		cells[i].K = k
	}
	return cells, nil
}

// Expand turns the Spec into its deterministic work-list: the (graph, k)
// cells in declaration order, each repeated Trials times with per-trial
// derived seeds.
func (s *Spec) Expand() ([]Cell, []Trial, error) {
	s.normalize()
	if s.Trials < 1 {
		return nil, nil, fmt.Errorf("harness: trials must be positive, got %d", s.Trials)
	}
	cells, err := s.cells()
	if err != nil {
		return nil, nil, err
	}
	// Refuse what cannot run against every cell up front: a bad
	// combination or a generation larger than one cell's k would otherwise
	// surface only when that cell's first trial runs, possibly hours into
	// a sweep.
	for _, c := range cells {
		gs := s.gossipSpec(Trial{Graph: c.Graph, K: c.K})
		if err := gs.validate(s.Protocol); err != nil {
			return nil, nil, fmt.Errorf("cell n=%d: %w", c.Size, err)
		}
	}
	trials := make([]Trial, 0, len(cells)*s.Trials)
	for ci, c := range cells {
		for t := 0; t < s.Trials; t++ {
			trials = append(trials, Trial{
				Index: len(trials), Cell: ci, Num: t,
				Seed:  s.TrialSeed(c.Size, t),
				Graph: c.Graph, Size: c.Size, K: c.K,
			})
		}
	}
	return cells, trials, nil
}

// ExecuteTrial runs one expanded trial of the spec through Execute, on no
// worker state: the serial baseline the benchmark's traced pass times
// trial by trial. Runner.RunTrials gives the same outcome.
func (s *Spec) ExecuteTrial(t Trial) (Outcome, error) {
	return s.executeTrial(t, nil)
}

// executeTrial is ExecuteTrial on a worker's state (see execute).
func (s *Spec) executeTrial(t Trial, st *trialState) (Outcome, error) {
	return execute(s.gossipSpec(t), s.Protocol, t.Seed, st)
}

// gossipSpec binds a trial to its per-simulation protocol configuration.
func (s *Spec) gossipSpec(t Trial) GossipSpec {
	return GossipSpec{
		Graph: t.Graph, Model: s.Model, K: t.K, Q: s.Q,
		Action: s.Action, Selector: s.Selector,
		SingleSource: s.SingleSource, LossRate: s.LossRate,
		Dynamics: s.Dynamics, GenSize: s.GenSize, Shards: s.Shards,
		Adversary: s.Adversary, Classes: s.Classes,
		MaxRounds: s.MaxRounds, Lean: s.Lean,
	}
}

// ParseSizes parses a comma-separated node-count list such as "16,32,64".
func ParseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// PickK resolves a k-mode ("half", "n", "sqrt", "const:<v>") against a
// node count.
func PickK(mode string, n int) (int, error) {
	switch {
	case mode == "half":
		return n / 2, nil
	case mode == "n":
		return n, nil
	case mode == "sqrt":
		k := 1
		for k*k < n {
			k++
		}
		return k, nil
	case strings.HasPrefix(mode, "const:"):
		v, err := strconv.Atoi(strings.TrimPrefix(mode, "const:"))
		if err != nil || v < 1 {
			return 0, fmt.Errorf("bad kmode %q", mode)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("unknown kmode %q", mode)
	}
}
