// Package sim is the discrete-event gossip simulation engine. It implements
// the two time models of the paper (Section 2):
//
//   - Synchronous: in every round, every node takes an action and selects a
//     single communication partner; information received in a round becomes
//     usable only at the beginning of the next round. The engine enforces
//     this by calling BeginRound / EndRound around the per-node wakeups, and
//     protocols stage their deliveries until EndRound.
//   - Asynchronous: at every timeslot, one node selected independently and
//     uniformly at random takes an action; n consecutive timeslots count as
//     one round. Deliveries apply immediately.
//
// Partner selection is factored out into PartnerSelector (the paper's
// "gossip communication model"): uniform gossip and round-robin
// (quasirandom) gossip here, the tree parent of TAG's Phase 2 in gossip/tag.
package sim

import (
	"algossip/internal/core"
	"algossip/internal/graph"
)

// Protocol is a gossip protocol driven by the engine. A protocol owns all
// per-node state; the engine only decides who wakes up when.
//
// Implementations must tolerate OnWake being called for any node at any
// time (the engine's scheduling is the only contract), and must make
// synchronous-model staging decisions based on the TimeModel they were
// constructed with.
type Protocol interface {
	// Name identifies the protocol in results and traces.
	Name() string
	// OnWake is invoked when node v takes an action: v selects a partner
	// and communicates according to the protocol.
	OnWake(v core.NodeID)
	// BeginRound is invoked before the wakeups of a synchronous round.
	// It is never invoked in the asynchronous model.
	BeginRound(round int)
	// EndRound is invoked after the wakeups of a synchronous round;
	// staged deliveries must be applied here. Never invoked in the
	// asynchronous model.
	EndRound(round int)
	// Done reports whether the protocol's global task is complete (e.g.
	// every node reached rank k). It must be cheap: the engine polls it
	// every timeslot in the asynchronous model.
	Done() bool
}

// ShardedProtocol is an optional Protocol extension for sharded
// round-parallel execution (Engine WithShards): the engine partitions the
// node set into contiguous 64-node bitmap-word ranges and drives each
// range's wakeups on its own worker, then has the protocol commit every
// staged send deterministically.
//
// The determinism contract mirrors the harness's byte-identity guarantee
// across -parallel values, pushed down into the engine: a protocol's
// sharded trajectory must be identical for every shard count. The
// protocol owns what makes that possible — per-node RNG streams (the
// finest-grained "per-shard" derivation, so the word partition cannot
// influence any draw), fixed per-node staging slots, and a commit whose
// result does not depend on which worker staged or applied what.
type ShardedProtocol interface {
	Protocol
	// ActiveWords returns the bitmap (bit v of word v/64 = node v wakes
	// this round) the engine partitions across workers. Protocols may
	// retire provably inert nodes by clearing bits, as long as the
	// decision is a deterministic function of round-start state. A nil
	// return means the protocol was not configured for sharded
	// execution, and Run fails.
	ActiveWords() []uint64
	// WakeShard performs the wakeups of every set bit in the word range
	// [lo, hi), staging all sends. Calls for disjoint ranges run
	// concurrently; implementations must confine mutation to
	// node-owned state (per-node RNGs, per-node slots) and only read
	// what several wakeups share, such as a node both ranges contact. The
	// ranges of one round's calls must together cover every word of
	// ActiveWords: a wakeup is also what discards the node's stage from
	// its previous round, so CommitRound may assume every active node
	// was woken.
	WakeShard(lo, hi int)
	// CommitRound applies every staged send, after all WakeShard calls
	// of the round — covering every word — returned. The contract is per
	// receiver: a node sees the deliveries addressed to it in ascending
	// slot order (the waker's ID, the send before the exchange reply), and
	// receivers are independent of one another, so an implementation may
	// apply different receivers' deliveries concurrently, on goroutines of
	// its own. What is shared — traffic counters, completion stamps, the
	// Observer, the ActiveWords bitmap — is updated only by the calling
	// goroutine, in slot order, before CommitRound returns; Observer
	// callbacks therefore arrive exactly as from a serial walk of the
	// slots. It replaces EndRound, which is never invoked in sharded
	// execution.
	CommitRound(round int)
}

// TopologyEvent describes one topology transition of a dynamic run.
type TopologyEvent struct {
	// Round is the first round the new topology is in force.
	Round int
	// Graph is the new topology. Node count never changes across events.
	Graph *graph.Graph
	// Reset lists churned nodes that rejoined as fresh machines: the
	// protocol must reinitialize their state from their initial seeds.
	Reset []core.NodeID
}

// Retarget points sel at the event's graph when the selector supports
// dynamic retargeting (no-op otherwise).
func (ev TopologyEvent) Retarget(sel PartnerSelector) {
	if ds, ok := sel.(DynamicSelector); ok {
		ds.SetGraph(ev.Graph)
	}
}

// TopologyAware is an optional Protocol extension for dynamic-topology
// runs: the engine calls OnTopologyChange whenever the schedule's graph
// changes or churned nodes rejoin. Protocols that implement it must
// re-target their partner selection to the event's graph and restart the
// reset nodes; coded protocols keep every surviving node's subspace (a
// smaller graph never invalidates received equations).
//
// A topology changes between rounds; nothing is staged. The engine
// delivers an event once before round 0 and then only at a round boundary
// — before BeginRound in the synchronous model, after the previous round's
// EndRound or CommitRound applied every staged delivery; at a slot that
// starts a round in the asynchronous model, where deliveries apply at once
// — so an implementation has no in-flight packet to reconcile with the
// new graph, and a packet counted as sent always meets its verdict. The
// engine holds this contract (TestTopologyEventsOnlyBetweenRounds);
// protocols do not re-check it.
type TopologyAware interface {
	OnTopologyChange(ev TopologyEvent)
}

// Observer receives a protocol's per-node completion events (every
// protocol reports them, through its gossip.Progress). All callbacks are
// synchronous and must not retain the arguments.
type Observer interface {
	// NodeDone fires once per node, when that node completes the task
	// (reaches full rank / becomes informed), with the round number in the
	// protocol's time model.
	NodeDone(v core.NodeID, round int)
}
