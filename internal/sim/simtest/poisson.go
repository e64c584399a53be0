package simtest

import (
	"container/heap"
	"fmt"

	"algossip/internal/core"
	"algossip/internal/sim"
)

// PoissonResult extends Result with the continuous stopping time.
type PoissonResult struct {
	sim.Result
	// Time is the continuous stopping time; with n rate-1 clocks, one unit
	// of time corresponds to one expected round (n expected wakeups).
	Time float64
}

// RunPoisson drives the protocol under the paper's footnote-2 formulation
// of the asynchronous model: every node has an independent rate-1 Poisson
// clock and wakes at its ticks, so n expected ticks elapse per unit time
// ("there is a total [of] n clock ticks per round"). The discrete
// uniform-timeslot scheduler in sim.Engine.Run is the embedded jump chain
// of this process; RunPoisson exists for the tests that validate that
// equivalence, which is why it lives here and not in sim.
//
// The protocol must have been constructed with core.Asynchronous semantics
// (immediate delivery). maxTime caps the simulated time.
func RunPoisson(g interface {
	N() int
	Name() string
}, proto sim.Protocol, schedSeed uint64, maxTime float64) (PoissonResult, error) {
	if maxTime <= 0 {
		maxTime = float64(sim.DefaultMaxRounds)
	}
	n := g.N()
	rng := core.NewRand(schedSeed)

	// One pending tick per node in a time-ordered heap; after each wakeup,
	// the node's next tick is exponentially distributed (rate 1).
	ticks := &tickQueue{}
	for v := 0; v < n; v++ {
		heap.Push(ticks, tick{at: rng.ExpFloat64(), node: core.NodeID(v)})
	}

	res := PoissonResult{Result: sim.Result{
		Protocol: proto.Name(),
		Graph:    g.Name(),
		Model:    core.Asynchronous,
	}}
	var now float64
	wakeups := 0
	for !proto.Done() {
		t := heap.Pop(ticks).(tick)
		now = t.at
		if now > maxTime {
			res.Time = maxTime
			res.Rounds = int(maxTime)
			res.Timeslots = wakeups
			return res, fmt.Errorf("sim: poisson run on %s at time %.0f: %w",
				res.Graph, maxTime, sim.ErrRoundLimit)
		}
		proto.OnWake(t.node)
		wakeups++
		heap.Push(ticks, tick{at: now + rng.ExpFloat64(), node: t.node})
	}
	res.Time = now
	res.Rounds = int(now) + 1
	res.Timeslots = wakeups
	res.Completed = true
	return res, nil
}

// tick is one scheduled Poisson clock tick.
type tick struct {
	at   float64
	node core.NodeID
}

type tickQueue []tick

func (q tickQueue) Len() int           { return len(q) }
func (q tickQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q tickQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *tickQueue) Push(x any)        { *q = append(*q, x.(tick)) }
func (q *tickQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	*q = old[:n-1]
	return t
}
