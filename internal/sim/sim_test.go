package sim

import (
	"errors"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// probe is a minimal protocol that records engine callbacks so scheduling
// semantics can be asserted.
type probe struct {
	wakes      []core.NodeID
	wakeCount  map[core.NodeID]int
	beginCalls []int
	endCalls   []int
	doneAfter  int // total wakeups after which Done becomes true
}

func newProbe(doneAfter int) *probe {
	return &probe{wakeCount: make(map[core.NodeID]int), doneAfter: doneAfter}
}

func (p *probe) Name() string { return "probe" }
func (p *probe) OnWake(v core.NodeID) {
	p.wakes = append(p.wakes, v)
	p.wakeCount[v]++
}
func (p *probe) BeginRound(r int) { p.beginCalls = append(p.beginCalls, r) }
func (p *probe) EndRound(r int)   { p.endCalls = append(p.endCalls, r) }
func (p *probe) Done() bool       { return len(p.wakes) >= p.doneAfter }

func TestSynchronousScheduling(t *testing.T) {
	g := graph.Line(5)
	p := newProbe(15) // exactly 3 full rounds of 5 wakeups
	res, err := New(g, core.Synchronous, p, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if !res.Completed {
		t.Fatal("not completed")
	}
	// Every node wakes exactly once per round.
	for v, c := range p.wakeCount {
		if c != 3 {
			t.Errorf("node %d woke %d times, want 3", v, c)
		}
	}
	// BeginRound/EndRound bracket every round in order.
	if len(p.beginCalls) != 3 || len(p.endCalls) != 3 {
		t.Fatalf("begin/end calls = %d/%d, want 3/3", len(p.beginCalls), len(p.endCalls))
	}
	for i := 0; i < 3; i++ {
		if p.beginCalls[i] != i || p.endCalls[i] != i {
			t.Fatalf("round bracketing out of order: %v %v", p.beginCalls, p.endCalls)
		}
	}
	if res.Timeslots != 15 {
		t.Fatalf("timeslots = %d, want 15", res.Timeslots)
	}
}

func TestAsynchronousScheduling(t *testing.T) {
	g := graph.Complete(8)
	p := newProbe(4000)
	res, err := New(g, core.Asynchronous, p, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeslots != 4000 {
		t.Fatalf("timeslots = %d, want 4000", res.Timeslots)
	}
	if res.Rounds != 500 {
		t.Fatalf("rounds = %d, want 500", res.Rounds)
	}
	// No BeginRound/EndRound in the asynchronous model.
	if len(p.beginCalls) != 0 || len(p.endCalls) != 0 {
		t.Fatal("round hooks must not fire in the asynchronous model")
	}
	// Wakeups are uniform: each of 8 nodes expects 500, tolerate ±40%.
	for v, c := range p.wakeCount {
		if c < 300 || c > 700 {
			t.Errorf("node %d woke %d times, expected about 500", v, c)
		}
	}
}

func TestRoundLimit(t *testing.T) {
	g := graph.Line(3)
	p := newProbe(1 << 30) // never done
	res, err := New(g, core.Synchronous, p, 1, WithMaxRounds(10)).Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res.Completed {
		t.Fatal("must not report completed")
	}
	if res.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10", res.Rounds)
	}
	if !strings.Contains(res.String(), "TIMEOUT") {
		t.Errorf("String() = %q, want TIMEOUT marker", res.String())
	}
}

// TestRunUnknownTimeModel drives the engine's error branch: any model
// outside {Synchronous, Asynchronous} must fail with a descriptive error
// and an incomplete zero-round Result, and must never be confused with a
// round-limit timeout.
func TestRunUnknownTimeModel(t *testing.T) {
	g := graph.Line(4)
	for _, tt := range []struct {
		name  string
		model core.TimeModel
	}{
		{"zero", core.TimeModel(0)},
		{"past-end", core.TimeModel(3)},
		{"garbage", core.TimeModel(42)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p := newProbe(1)
			res, err := New(g, tt.model, p, 1).Run()
			if err == nil {
				t.Fatal("unknown time model accepted")
			}
			if !strings.Contains(err.Error(), "unknown time model") {
				t.Errorf("err = %v, want unknown-time-model message", err)
			}
			if errors.Is(err, ErrRoundLimit) {
				t.Error("unknown-model error must not wrap ErrRoundLimit")
			}
			if res.Completed || res.Rounds != 0 || res.Timeslots != 0 {
				t.Errorf("result not zeroed: %+v", res)
			}
			if res.Protocol != "probe" || res.Graph != g.Name() || res.Model != tt.model {
				t.Errorf("result labels wrong: %+v", res)
			}
			if len(p.wakes) != 0 {
				t.Error("protocol woke despite the error")
			}
		})
	}
}

// TestResultString pins the exact rendering of both Result states, TIMEOUT
// included.
func TestResultString(t *testing.T) {
	timeout := Result{Protocol: "uniform-ag", Graph: "line-8",
		Model: core.Synchronous, Rounds: 1048576}
	if got, want := timeout.String(), "uniform-ag on line-8 [synchronous]: 1048576 rounds (TIMEOUT)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	done := Result{Protocol: "tag-brr", Graph: "barbell-16",
		Model: core.Asynchronous, Rounds: 42, Completed: true}
	if got, want := done.String(), "tag-brr on barbell-16 [asynchronous]: 42 rounds (done)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []core.NodeID {
		p := newProbe(1000)
		if _, err := New(graph.Grid(4, 4), core.Asynchronous, p, 99).Run(); err != nil {
			t.Fatal(err)
		}
		return p.wakes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wake sequences diverge at %d", i)
		}
	}
}

func TestUniformSelectorCoverage(t *testing.T) {
	g := graph.Star(6)
	sel := NewUniform(g)
	rng := core.NewRand(3)
	seen := make(map[core.NodeID]bool)
	for i := 0; i < 500; i++ {
		u := sel.Partner(0, rng)
		if !g.HasEdge(0, u) {
			t.Fatalf("partner %d is not a neighbor", u)
		}
		seen[u] = true
	}
	if len(seen) != 5 {
		t.Errorf("uniform selector covered %d/5 neighbors", len(seen))
	}
	// Leaf has a single neighbor.
	if u := sel.Partner(3, rng); u != 0 {
		t.Errorf("leaf partner = %d, want 0", u)
	}
}

func TestRoundRobinSelectorCycles(t *testing.T) {
	g := graph.Complete(5)
	sel := NewRoundRobin(g)
	rng := core.NewRand(11)
	deg := g.Degree(0)
	// Every window of deg consecutive calls hits each neighbor exactly once.
	for window := 0; window < 3; window++ {
		seen := make(map[core.NodeID]int)
		for i := 0; i < deg; i++ {
			seen[sel.Partner(0, rng)]++
		}
		if len(seen) != deg {
			t.Fatalf("window %d covered %d/%d neighbors", window, len(seen), deg)
		}
		for u, c := range seen {
			if c != 1 {
				t.Fatalf("window %d contacted %d %d times", window, u, c)
			}
		}
	}
}

func TestRoundRobinRandomInitialOffset(t *testing.T) {
	g := graph.Complete(40)
	firsts := make(map[core.NodeID]bool)
	for seed := uint64(0); seed < 30; seed++ {
		sel := NewRoundRobin(g)
		firsts[sel.Partner(0, core.NewRand(seed))] = true
	}
	if len(firsts) < 5 {
		t.Errorf("initial offsets not randomized: only %d distinct first partners", len(firsts))
	}
}

func TestSelectorNames(t *testing.T) {
	g := graph.Line(3)
	if NewUniform(g).Name() != "uniform" ||
		NewRoundRobin(g).Name() != "round-robin" {
		t.Fatal("selector names wrong")
	}
}
