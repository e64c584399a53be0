package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// DefaultMaxRounds caps runaway simulations; experiments override it when a
// topology legitimately needs more (e.g. uniform AG on the barbell).
const DefaultMaxRounds = 1 << 20

// ErrRoundLimit is returned (wrapped) by Run when the protocol did not
// complete within the configured round budget.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// Result summarizes one simulation run.
type Result struct {
	// Protocol is the protocol name.
	Protocol string
	// Graph is the topology name.
	Graph string
	// Model is the time model the run used.
	Model core.TimeModel
	// Rounds is the stopping time in rounds (the paper's unit). In the
	// asynchronous model this is ⌈timeslots/n⌉.
	Rounds int
	// Timeslots is the stopping time in timeslots (asynchronous model
	// only; in the synchronous model it equals n·Rounds by convention).
	Timeslots int
	// Completed reports whether the protocol finished within the budget.
	Completed bool
}

// String renders a compact one-line summary.
func (r Result) String() string {
	status := "done"
	if !r.Completed {
		status = "TIMEOUT"
	}
	return fmt.Sprintf("%s on %s [%s]: %d rounds (%s)",
		r.Protocol, r.Graph, r.Model, r.Rounds, status)
}

// Engine drives one protocol over one graph under one time model with a
// deterministic scheduling RNG. Engines are single-use: construct, Run,
// discard.
type Engine struct {
	g         *graph.Graph
	dyn       graph.Dynamic // nil for static runs
	model     core.TimeModel
	proto     Protocol
	rng       *rand.Rand
	maxRounds int
	shards    int // 0 = classic per-node wake loop

	// The sharded wake (nil sharded: the per-node wake loop). Each round
	// cuts the bitmap's words into ranges of per words, one WakeShard call
	// each, run as the parts of one crew pass.
	sharded ShardedProtocol
	words   int
	per     int
	crew    Crew[*Engine]
}

// Option configures an Engine.
type Option func(*Engine)

// WithMaxRounds overrides the round budget.
func WithMaxRounds(rounds int) Option {
	return func(e *Engine) { e.maxRounds = rounds }
}

// WithShards enables sharded round-parallel execution with the given
// worker count (see ShardedProtocol): the active-node bitmap is cut into
// at most shards contiguous word ranges, whose WakeShard calls run on the
// round's one fan-out (Crew), the same one the protocol's commit may use.
// The trajectory is identical for every positive shard count — shards=1
// runs the same semantics serially — so the count is a pure execution
// knob, like the harness's -parallel. Requires the synchronous model and a
// ShardedProtocol. Zero keeps the classic wake loop.
func WithShards(shards int) Option {
	return func(e *Engine) { e.shards = shards }
}

// New returns an Engine for the given graph, time model and protocol.
// schedSeed feeds the scheduling RNG (asynchronous wakeup order); protocol
// randomness is owned by the protocol itself.
func New(g *graph.Graph, model core.TimeModel, proto Protocol, schedSeed uint64, opts ...Option) *Engine {
	e := &Engine{
		g:         g,
		model:     model,
		proto:     proto,
		rng:       core.NewRand(schedSeed),
		maxRounds: DefaultMaxRounds,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// NewDynamic returns an Engine that drives proto over the time-varying
// topology d: at every round boundary the engine queries the schedule
// and, when the graph changed or churned nodes rejoined, delivers a
// TopologyEvent to the protocol (which must implement TopologyAware
// unless d is the trivial static schedule). Running over graph.Static(g)
// is bit-identical to New(g, ...): the scheduling RNG stream and wakeup
// order are untouched by the topology checks.
func NewDynamic(d graph.Dynamic, model core.TimeModel, proto Protocol, schedSeed uint64, opts ...Option) *Engine {
	e := New(d.At(0), model, proto, schedSeed, opts...)
	e.dyn = d
	return e
}

// Run executes the simulation until the protocol reports Done or the round
// budget is exhausted, returning the stopping time. The error wraps
// ErrRoundLimit on timeout; the Result is valid either way.
func (e *Engine) Run() (Result, error) {
	res := Result{
		Protocol: e.proto.Name(),
		Graph:    e.g.Name(),
		Model:    e.model,
	}
	if e.dyn != nil {
		res.Graph = e.dyn.Name()
		if _, static := e.dyn.(*graph.StaticSchedule); !static {
			ta, ok := e.proto.(TopologyAware)
			if !ok {
				return res, fmt.Errorf("sim: protocol %s cannot run on dynamic topology %s (does not implement TopologyAware)",
					res.Protocol, res.Graph)
			}
			// Align the protocol with the round-0 topology before any
			// communication: callers construct protocols over the
			// schedule's base graph, which may already differ at round 0
			// (grow starts with most nodes unjoined; i.i.d. failures
			// sample round 0 too).
			var reset []core.NodeID
			if ch, ok := e.dyn.(graph.Churner); ok {
				reset = ch.ResetAt(0)
			}
			ta.OnTopologyChange(TopologyEvent{Round: 0, Graph: e.g, Reset: reset})
		}
	}
	switch e.model {
	case core.Synchronous:
		if e.shards > 0 {
			sp, ok := e.proto.(ShardedProtocol)
			if !ok {
				return res, fmt.Errorf("sim: protocol %s does not implement ShardedProtocol", res.Protocol)
			}
			if sp.ActiveWords() == nil {
				return res, fmt.Errorf("sim: protocol %s was not configured for sharded execution", res.Protocol)
			}
			e.sharded = sp
		}
		rounds, done := e.runSync()
		res.Rounds = rounds
		res.Timeslots = rounds * e.g.N()
		res.Completed = done
	case core.Asynchronous:
		if e.shards > 0 {
			return res, fmt.Errorf("sim: sharded execution requires the synchronous model")
		}
		slots, done := e.runAsync()
		res.Timeslots = slots
		res.Rounds = (slots + e.g.N() - 1) / e.g.N()
		res.Completed = done
	default:
		return res, fmt.Errorf("sim: unknown time model %v", e.model)
	}
	if !res.Completed {
		return res, fmt.Errorf("sim: %s on %s after %d rounds: %w",
			res.Protocol, res.Graph, res.Rounds, ErrRoundLimit)
	}
	return res, nil
}

// runSync executes synchronous rounds: every node wakes exactly once per
// round, and what it stages is applied at the round's end. The classic
// loop wakes the nodes in ID order and ends the round with EndRound; a
// sharded run wakes the bitmap's word ranges on the crew and ends the
// round with CommitRound, which sees how many WakeShard calls there were.
func (e *Engine) runSync() (rounds int, done bool) {
	n := e.g.N()
	for round := 0; round < e.maxRounds; round++ {
		if e.proto.Done() {
			return round, true
		}
		e.stepTopology(round)
		e.proto.BeginRound(round)
		if e.sharded == nil {
			for v := 0; v < n; v++ {
				e.proto.OnWake(core.NodeID(v))
			}
			e.proto.EndRound(round)
			continue
		}
		e.wakeShards()
		e.sharded.CommitRound(round)
	}
	return e.maxRounds, e.proto.Done()
}

// wakeShards cuts the round's bitmap into at most shards ranges of
// ⌈words/min(shards, words)⌉ words and wakes them on the crew. The number
// of ranges is the width of the commit that follows.
func (e *Engine) wakeShards() {
	e.words = len(e.sharded.ActiveWords())
	shards := min(e.shards, e.words)
	e.per = (e.words + shards - 1) / shards
	e.crew.Run((e.words+e.per-1)/e.per, e, (*Engine).wakeRange)
}

// wakeRange is part j of a sharded wake: the words [j·per, (j+1)·per),
// the last range cut at the bitmap's end.
func (e *Engine) wakeRange(j int) {
	lo := j * e.per
	e.sharded.WakeShard(lo, min(lo+e.per, e.words))
}

// runAsync executes asynchronous timeslots: one uniformly random node wakes
// per slot; deliveries apply immediately.
func (e *Engine) runAsync() (timeslots int, done bool) {
	n := e.g.N()
	budget := e.maxRounds * n
	for slot := 0; slot < budget; slot++ {
		if e.proto.Done() {
			return slot, true
		}
		if slot%n == 0 {
			e.stepTopology(slot / n)
		}
		e.proto.OnWake(core.NodeID(e.rng.IntN(n)))
	}
	return budget, e.proto.Done()
}

// stepTopology advances a dynamic run's topology to the given round and
// notifies the protocol on a change. It is a no-op for static runs, and
// consumes no scheduling randomness either way, so static trajectories
// are untouched.
func (e *Engine) stepTopology(round int) {
	if e.dyn == nil {
		return
	}
	g := e.dyn.At(round)
	var reset []core.NodeID
	if ch, ok := e.dyn.(graph.Churner); ok {
		reset = ch.ResetAt(round)
	}
	if g == e.g && len(reset) == 0 {
		return
	}
	e.g = g
	if ta, ok := e.proto.(TopologyAware); ok {
		ta.OnTopologyChange(TopologyEvent{Round: round, Graph: g, Reset: reset})
	}
}
