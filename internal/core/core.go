// Package core holds the small set of kernel types shared by every
// subsystem of the algebraic-gossip reproduction: node identifiers, time
// models, gossip actions, and deterministic seed derivation.
//
// The vocabulary follows Section 2 of Avin, Borokhovich, Censor-Hillel and
// Lotker, "Order Optimal Information Spreading Using Algebraic Gossip"
// (PODC 2011): a *time model* decides which nodes wake up when, a *gossip
// communication model* decides which neighbor a woken node contacts and in
// which direction information flows (PUSH, PULL or EXCHANGE), and a *gossip
// protocol* decides the message content.
package core

import (
	"fmt"
	"math/rand/v2"
)

// NodeID identifies a node in a simulated or deployed network. Nodes are
// numbered 0..n-1.
type NodeID int

// NilNode is the sentinel "no node" value, used e.g. for a missing parent
// pointer before a spanning-tree protocol has assigned one.
const NilNode NodeID = -1

// Action is the direction of information flow when a woken node contacts a
// communication partner (paper Section 2).
type Action int

const (
	// Push sends information from the initiator to the partner.
	Push Action = iota + 1
	// Pull requests information from the partner to the initiator.
	Pull
	// Exchange does both directions in a single contact. All headline
	// results of the paper are stated for EXCHANGE.
	Exchange
)

// String returns the paper's name for the action.
func (a Action) String() string {
	switch a {
	case Push:
		return "PUSH"
	case Pull:
		return "PULL"
	case Exchange:
		return "EXCHANGE"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Legs reports which transfers a contact makes that v initiated with u:
// out is v→u (PUSH, EXCHANGE), back is u→v (PULL, EXCHANGE). Every
// protocol makes the out leg first. (Two flags and not a list of legs to
// range over: that loop cost small trials 5%.)
func (a Action) Legs() (out, back bool) {
	return a == Push || a == Exchange, a == Pull || a == Exchange
}

// ParseAction converts a string such as "push" or "EXCHANGE" to an Action.
func ParseAction(s string) (Action, error) {
	switch s {
	case "push", "PUSH", "Push":
		return Push, nil
	case "pull", "PULL", "Pull":
		return Pull, nil
	case "exchange", "EXCHANGE", "Exchange", "xchg":
		return Exchange, nil
	default:
		return 0, fmt.Errorf("core: unknown action %q", s)
	}
}

// TimeModel selects between the two schedulers of the paper.
type TimeModel int

const (
	// Synchronous: in every round, every node takes an action and selects a
	// single communication partner. Information received in a round is
	// available for sending only at the beginning of the next round.
	Synchronous TimeModel = iota + 1
	// Asynchronous: in every timeslot one node, selected independently and
	// uniformly at random, takes an action. n consecutive timeslots are
	// counted as one round.
	Asynchronous
)

// String returns the model name.
func (m TimeModel) String() string {
	switch m {
	case Synchronous:
		return "synchronous"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("TimeModel(%d)", int(m))
	}
}

// ParseTimeModel converts a string such as "sync" or "asynchronous" to a
// TimeModel.
func ParseTimeModel(s string) (TimeModel, error) {
	switch s {
	case "sync", "synchronous", "s":
		return Synchronous, nil
	case "async", "asynchronous", "a":
		return Asynchronous, nil
	default:
		return 0, fmt.Errorf("core: unknown time model %q", s)
	}
}

// NewRand returns a deterministic PCG-backed generator for the given seed.
// Two generators created from the same seed produce identical streams, which
// is what makes whole simulations replayable. The stream is that of
// rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), drawn from a *PCG
// that Generator hands back to the hot loops.
func NewRand(seed uint64) *rand.Rand {
	p := pcgAt(seed)
	return rand.New(&p)
}

// Reseed restarts r, a NewRand stream, at seed: it then draws what
// NewRand(seed) would, and nothing is allocated. It reaches the stream
// through Generator, so it panics on a *rand.Rand NewRand did not build.
func Reseed(r *rand.Rand, seed uint64) {
	*Generator(r) = pcgAt(seed)
}

// pcgAt is the state NewRand(seed) starts from.
func pcgAt(seed uint64) PCG {
	return PCG{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
}

// Poison fills memory a reset keeps with 0xA5 bytes in a race-detector
// build, whose tests then prove that nothing reused is read before it is
// written; elsewhere it does nothing.
func Poison[E ~uint8 | ~uint64](spans ...[]E) {
	if !RaceEnabled {
		return
	}
	w := uint64(0xA5A5A5A5A5A5A5A5)
	for _, s := range spans {
		for i := range s {
			s[i] = E(w)
		}
	}
}

// SplitSeed derives an independent child seed from a parent seed and a
// stream index, using a SplitMix64 finalizer. It is used to hand every
// node, trial, and subsystem its own reproducible randomness without the
// streams being correlated.
func SplitSeed(parent uint64, stream uint64) uint64 {
	z := parent + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
