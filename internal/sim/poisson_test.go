package sim_test

import (
	"errors"
	"math"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/sim"
	"algossip/internal/sim/simtest"
)

// wakeProbe is a protocol that is done after a number of wakeups.
type wakeProbe struct {
	wakeCount map[core.NodeID]int
	left      int
}

func newProbe(doneAfter int) *wakeProbe {
	return &wakeProbe{wakeCount: make(map[core.NodeID]int), left: doneAfter}
}

func (p *wakeProbe) Name() string         { return "probe" }
func (p *wakeProbe) OnWake(v core.NodeID) { p.wakeCount[v]++; p.left-- }
func (p *wakeProbe) BeginRound(int)       {}
func (p *wakeProbe) EndRound(int)         {}
func (p *wakeProbe) Done() bool           { return p.left <= 0 }

func TestPoissonCompletesAndCountsWakeups(t *testing.T) {
	g := graph.Complete(8)
	p := newProbe(4000)
	res, err := simtest.RunPoisson(g, p, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Timeslots != 4000 {
		t.Fatalf("res = %+v", res)
	}
	// 4000 wakeups of 8 rate-1 clocks take about 4000/8 = 500 time units.
	if res.Time < 400 || res.Time > 600 {
		t.Errorf("continuous time %.1f, expected ~500", res.Time)
	}
	// Per-node wakeup counts are balanced (i.i.d. exponential clocks).
	for v, c := range p.wakeCount {
		if c < 300 || c > 700 {
			t.Errorf("node %d woke %d times, expected ~500", v, c)
		}
	}
}

func TestPoissonTimeout(t *testing.T) {
	g := graph.Line(3)
	p := newProbe(1 << 30)
	res, err := simtest.RunPoisson(g, p, 1, 5)
	if !errors.Is(err, sim.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res.Completed {
		t.Fatal("must not complete")
	}
}

func TestPoissonDeterminism(t *testing.T) {
	g := graph.Grid(3, 3)
	run := func() float64 {
		p := newProbe(500)
		res, err := simtest.RunPoisson(g, p, 42, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave times %v and %v", a, b)
	}
}

// TestPoissonMatchesSlottedModel validates footnote 2 of the paper: the
// uniform-timeslot scheduler is the jump chain of the Poisson-clock
// process, so a protocol's expected stopping time in continuous time units
// matches its slotted stopping time in rounds (both count ~n wakeups per
// round). Compared on means over several seeds with generous tolerance.
func TestPoissonMatchesSlottedModel(t *testing.T) {
	g := graph.Grid(4, 4)
	const trials = 10
	const target = 2000 // wakeups until the probe reports done

	var slottedRounds, poissonTime float64
	for seed := uint64(0); seed < trials; seed++ {
		ps := newProbe(target)
		res, err := sim.New(g, core.Asynchronous, ps, core.SplitSeed(seed, 1)).Run()
		if err != nil {
			t.Fatal(err)
		}
		slottedRounds += float64(res.Rounds)

		pp := newProbe(target)
		pres, err := simtest.RunPoisson(g, pp, core.SplitSeed(seed, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		poissonTime += pres.Time
	}
	slottedRounds /= trials
	poissonTime /= trials
	// Both should be ~target/n = 125.
	want := float64(target) / float64(g.N())
	if math.Abs(slottedRounds-want) > 2 {
		t.Errorf("slotted rounds %.1f, want ~%.0f", slottedRounds, want)
	}
	if math.Abs(poissonTime-want) > want*0.15 {
		t.Errorf("poisson time %.1f, want ~%.0f", poissonTime, want)
	}
}
