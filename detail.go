package algossip

import (
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
)

// Traffic is the per-run transmission accounting (packets sent, helpful,
// useless, dropped) — see the paper's bounded-message-size motivation.
type Traffic = gossip.Traffic

// Detail augments a Result with per-node and per-packet observability.
type Detail struct {
	// NodeDoneRounds holds, per node, the round at which it completed.
	NodeDoneRounds []int
	// Traffic is the aggregated transmission accounting (for TAG it
	// includes the spanning-tree protocol's messages).
	Traffic Traffic
	// MessageBits is the wire size of one coded message, (k+r)·log2 q.
	MessageBits int
	// TreeRounds is t(S) for TAG runs (-1 otherwise or when untracked).
	TreeRounds int
}

// RunDetailed is Run plus a Detail record: per-node completion rounds,
// traffic counters, and message sizing. It is one harness.Execute, whose
// screen refuses a spec that cannot run (nil graph, k < 1, an unsupported
// field order, a protocol that does not take the action) with an error.
func RunDetailed(spec Spec, seed uint64) (Result, Detail, error) {
	o, err := harness.Execute(harness.GossipSpec{
		Graph:        spec.Graph,
		Model:        spec.Model,
		K:            spec.K,
		Q:            spec.Q,
		Action:       spec.Action,
		SingleSource: spec.SingleSource,
		MaxRounds:    spec.MaxRounds,
	}, spec.Protocol, seed)
	detail := Detail{
		NodeDoneRounds: o.NodeDoneRounds,
		Traffic:        o.Traffic,
		MessageBits:    o.MessageBits,
		TreeRounds:     o.TreeRounds,
	}
	return o.Result, detail, err
}

// RLNCRankOnlyConfig returns the rank-only codec configuration used by the
// timing APIs: field order q, k unknowns, no payload.
func RLNCRankOnlyConfig(k, q int) rlnc.Config {
	return rlnc.Config{Field: gf.MustNew(q), K: k, RankOnly: true}
}
