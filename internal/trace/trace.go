// Package trace records per-node protocol progress for post-hoc analysis:
// which node completed at which round, condensed into the quantiles of the
// paper's per-node dissemination curves (experiment E14).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"algossip/internal/core"
	"algossip/internal/sim"
	"algossip/internal/stats"
)

// Event is one recorded completion.
type Event struct {
	// Node is the completing node.
	Node core.NodeID
	// Round is the round (in the protocol's time model) of completion.
	Round int
}

// Recorder collects completion events. It implements sim.Observer and is
// safe for concurrent use (the concurrent runtime may call it from many
// goroutines).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NodeDone implements sim.Observer.
func (r *Recorder) NodeDone(v core.NodeID, round int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Node: v, Round: round})
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// CompletionRounds returns the sorted completion rounds.
func (r *Recorder) CompletionRounds() []float64 {
	events := r.Events()
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = float64(e.Round)
	}
	sort.Float64s(out)
	return out
}

// Summary condenses the completion rounds (mean, median, p90, max — the
// max is the protocol's stopping time).
func (r *Recorder) Summary() (stats.Summary, error) {
	rounds := r.CompletionRounds()
	if len(rounds) == 0 {
		return stats.Summary{}, fmt.Errorf("trace: no events recorded")
	}
	return stats.Summarize(rounds), nil
}
