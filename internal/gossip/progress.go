package gossip

import (
	"slices"

	"algossip/internal/core"
	"algossip/internal/sim"
)

// Progress is the round ledger of a simulated protocol (paper Section 2):
// the time model's clock, the traffic counted so far, and which node was
// done by which round, with the observer that hears of it. Every protocol
// embeds one by value and gets BeginRound, Done, DoneRounds, Traffic and
// SetObserver by promotion; its hot paths read and count into the
// exported fields directly, at an offset of the protocol's own struct.
type Progress struct {
	// Model is the time model the protocol runs under.
	Model core.TimeModel
	// Round is the current round: the engine's in the synchronous model,
	// ⌊wakeups/n⌋ in the asynchronous one.
	Round int
	// Counts is the traffic so far.
	Counts Traffic

	slots int          // asynchronous wakeups so far
	stamp []int        // round at which each node was done, -1 before
	done  int          // nodes with a stamp
	obs   sim.Observer // nil: nobody listens
}

// NewProgress returns the ledger of an n-node run at round 0, nobody done.
func NewProgress(n int, model core.TimeModel) Progress {
	return Progress{Model: model, stamp: slices.Repeat([]int{-1}, n)}
}

// SetObserver installs a progress observer, or none if nil; call it before
// the protocol is seeded or run.
func (l *Progress) SetObserver(obs sim.Observer) { l.obs = obs }

// Wake counts one wakeup: in the asynchronous model n timeslots are a
// round. The synchronous clock is BeginRound's.
func (l *Progress) Wake() {
	if l.Model == core.Asynchronous {
		l.slots++
		l.Round = l.slots / len(l.stamp)
	}
}

// BeginRound implements sim.Protocol for the embedding protocol.
func (l *Progress) BeginRound(round int) { l.Round = round }

// IsDone reports whether v carries a done stamp.
func (l *Progress) IsDone(v core.NodeID) bool { return l.stamp[v] >= 0 }

// MarkDone stamps v, which must not be done, with the current round and
// tells the observer.
func (l *Progress) MarkDone(v core.NodeID) {
	l.stamp[v] = l.Round
	l.done++
	if l.obs != nil {
		l.obs.NodeDone(v, l.Round)
	}
}

// Unmark clears v's stamp, if any: a churned-out node rejoined as a fresh
// machine. It is stamped, and the observer told, again when it re-completes.
func (l *Progress) Unmark(v core.NodeID) {
	if l.stamp[v] >= 0 {
		l.stamp[v] = -1
		l.done--
	}
}

// Done implements sim.Protocol for the embedding protocol: every node is
// stamped.
func (l *Progress) Done() bool { return l.done == len(l.stamp) }

// DoneRounds returns, per node, the round at which it was done (-1 if it
// is not). The slice is a copy.
func (l *Progress) DoneRounds() []int { return append([]int(nil), l.stamp...) }

// Traffic returns the transmission counters.
func (l *Progress) Traffic() Traffic { return l.Counts }
