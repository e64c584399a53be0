// Adversarial and heterogeneous node traits for algebraic gossip.
//
// The paper's O(n) stopping-time analysis assumes honest nodes with
// uniform capabilities. This file opens both assumptions: per-node
// Byzantine behaviors (silent free-riding, non-innovative replay,
// detectable pollution) with receiver-side verification-cost accounting,
// and heterogeneous node classes (stragglers whose transmissions are
// throttled by a queueing service process, and boosted tiers that send
// several combinations per contact).
//
// Determinism contract: trait assignment happens outside the protocol
// (the harness draws it from dedicated seed streams), and the behaviors
// themselves draw no protocol randomness — replay is a fixed function of
// node state, pollution needs no coefficients (the Corrupt flag models a
// mismatch any verifier detects), and free-riders send nothing. Straggler
// service times come from a separate class RNG (Config.TraitSeed), so a
// fixed-seed adversarial trial is byte-identical for any trial-level
// parallelism, and all non-adversarial trajectories are untouched.
package algebraic

import (
	"fmt"

	"algossip/internal/core"
	"algossip/internal/gossip"
)

// Behavior is a node's sending behavior. The zero value is honest.
type Behavior uint8

const (
	// Honest nodes follow the protocol exactly.
	Honest Behavior = iota
	// FreeRide nodes receive but never transmit (silent bandwidth theft):
	// every send leg they owe is skipped.
	FreeRide
	// Replay nodes retransmit a fixed stored equation (their first echelon
	// row) instead of a fresh random combination — syntactically valid
	// packets that are non-innovative to anyone who has heard them before.
	Replay
	// Pollute nodes send corrupt coefficient/payload combinations.
	// Pollution is detectable: receiver verification rejects the packet,
	// but only after paying the modeled k+r verification cost.
	Pollute
)

// String names the behavior (used in experiment tables and flags).
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case FreeRide:
		return "freeride"
	case Replay:
		return "replay"
	case Pollute:
		return "pollute"
	default:
		return fmt.Sprintf("behavior(%d)", uint8(b))
	}
}

// NodeTraits is one node's adversarial/heterogeneous profile. The zero
// value is an honest, uniform-capability node — a Traits slice of zero
// values reproduces the classic protocol exactly (but enables the
// verification accounting if any node is Byzantine).
type NodeTraits struct {
	// Behavior is the node's sending behavior.
	Behavior Behavior
	// Slow, when >= 2, makes the node a straggler: each transmission is
	// followed by a Geometric(1/Slow) service time (mean Slow rounds)
	// during which its send legs are dropped — the queueing-theoretic
	// model of a CPU- or bandwidth-starved node. 0 and 1 mean unthrottled.
	Slow int
	// Boost, when >= 2, makes the node a fast tier: it emits Boost
	// independent combinations per contact leg. 0 and 1 mean one packet.
	Boost int
}

func (t NodeTraits) validate() error {
	if t.Behavior > Pollute {
		return fmt.Errorf("algebraic: unknown behavior %d", t.Behavior)
	}
	if t.Slow < 0 || t.Slow == 1 {
		return fmt.Errorf("algebraic: straggler slow factor must be 0 or >= 2, got %d", t.Slow)
	}
	if t.Boost < 0 || t.Boost == 1 {
		return fmt.Errorf("algebraic: tier boost must be 0 or >= 2, got %d", t.Boost)
	}
	return nil
}

// byzantine reports whether the node deviates from the protocol in a way
// that makes receiver verification necessary.
func (t NodeTraits) byzantine() bool { return t.Behavior != Honest }

// HonestNodes returns the IDs of nodes with honest behavior (stragglers
// and boosted tiers included — they follow the protocol, just at a
// different rate). Initial messages must be seeded at honest nodes only:
// a free-rider or replayer holding the sole copy of x_i would never
// spread it and no one could converge.
func HonestNodes(traits []NodeTraits) []core.NodeID {
	out := make([]core.NodeID, 0, len(traits))
	for i, t := range traits {
		if !t.byzantine() {
			out = append(out, core.NodeID(i))
		}
	}
	return out
}

// RoundRobinAssignOver spreads k messages round-robin across the given
// node list — RoundRobinAssign restricted to a subset (the honest nodes
// of an adversarial run).
func RoundRobinAssignOver(k int, nodes []core.NodeID) []core.NodeID {
	out := make([]core.NodeID, k)
	for i := range out {
		out[i] = nodes[i%len(nodes)]
	}
	return out
}

// sendLeg is one contact leg from `from` toward `to`: one packet for
// uniform-capability nodes, Boost packets for boosted tiers. All OnWake
// transfers route through here; with no traits configured it is exactly
// send.
func (p *Protocol) sendLeg(from, to core.NodeID) {
	reps := 1
	if p.traits != nil {
		if b := p.traits[from].Boost; b > 1 {
			reps = b
		}
	}
	for i := 0; i < reps; i++ {
		p.send(from, to)
	}
}

// serviceReady gates a straggler's transmission on its queueing service
// process: a node still serving a previous transmission drops this leg;
// one that is free transmits and draws the next Geometric(1/Slow) service
// time from the class RNG. Non-stragglers are always ready.
func (p *Protocol) serviceReady(from core.NodeID) bool {
	s := p.service[from]
	if s == nil {
		return true
	}
	if p.Round < p.busyUntil[from] {
		return false
	}
	p.busyUntil[from] = p.Round + int(s(p.classRng))
	return true
}

// sendByz is the Byzantine send path (replay and pollute): it bypasses
// the honest emit — and the SkipEmit randomness-parity machinery, since
// Byzantine sends draw no protocol randomness — but flows through the
// same pool, loss, and staging mechanics as honest traffic.
func (p *Protocol) sendByz(from, to core.NodeID, pollute bool) {
	pkt := p.getPacket()
	if pollute {
		// Packet content is irrelevant: the Corrupt flag models a
		// coefficient/payload mismatch that verification always detects,
		// so the receive screen rejects it before looking at widths.
		p.nodes[from].EmitReplayInto(pkt)
		pkt.Packet.Corrupt = true
	} else if !p.nodes[from].EmitReplayInto(pkt) {
		p.recycle(pkt)
		return // replayer has heard nothing yet: nothing to replay
	}
	p.Counts.Sent++
	if p.cfg.LossRate > 0 && p.rng.Float64() < p.cfg.LossRate {
		p.Counts.Dropped++
		p.recycle(pkt)
		return
	}
	if p.Model == core.Synchronous {
		p.staged = append(p.staged, delivery{to: to, from: from, pkt: pkt})
		return
	}
	if p.apply(&p.Counts, to, pkt) {
		p.refreshDone(to)
	}
	p.recycle(pkt)
}

// verifyAccount charges one packet's worth of receiver-side verification
// (verifyCost field operations) to t when the run models Byzantine nodes.
// Honest runs skip verification entirely — the counters stay zero and the
// traffic JSON bytes are unchanged.
func (p *Protocol) verifyAccount(t *gossip.Traffic) {
	if p.verify {
		t.Verified++
		t.VerifyOps += p.verifyCost
	}
}
