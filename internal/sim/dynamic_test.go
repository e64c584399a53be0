package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// flipSchedule switches from a to b at round flipAt (test double with an
// injectable churn list).
type flipSchedule struct {
	a, b   *graph.Graph
	flipAt int
	resets map[int][]core.NodeID
}

func (s *flipSchedule) Name() string { return "flip" }
func (s *flipSchedule) At(round int) *graph.Graph {
	if round < s.flipAt {
		return s.a
	}
	return s.b
}
func (s *flipSchedule) ResetAt(round int) []core.NodeID { return s.resets[round] }

// topoProbe is a probe that also records topology events.
type topoProbe struct {
	probe
	events []TopologyEvent
}

func (p *topoProbe) OnTopologyChange(ev TopologyEvent) { p.events = append(p.events, ev) }

func TestDynamicEngineDeliversTopologyEvents(t *testing.T) {
	a, b := graph.Ring(6), graph.Line(6)
	sched := &flipSchedule{a: a, b: b, flipAt: 3,
		resets: map[int][]core.NodeID{5: {2, 4}}}
	p := &topoProbe{probe: *newProbe(1 << 30)}
	res, err := NewDynamic(sched, core.Synchronous, p, 1, WithMaxRounds(8)).Run()
	if err == nil {
		t.Fatal("probe never finishes; want round-limit error")
	}
	if res.Graph != "flip" {
		t.Fatalf("result graph = %q, want schedule name", res.Graph)
	}
	// Exactly three events: the round-0 alignment, the graph flip at
	// round 3, and the reset at 5.
	if len(p.events) != 3 {
		t.Fatalf("got %d topology events, want 3: %+v", len(p.events), p.events)
	}
	if p.events[0].Round != 0 || p.events[0].Graph != a || p.events[0].Reset != nil {
		t.Fatalf("initial event wrong: %+v", p.events[0])
	}
	if p.events[1].Round != 3 || p.events[1].Graph != b || p.events[1].Reset != nil {
		t.Fatalf("flip event wrong: %+v", p.events[1])
	}
	if p.events[2].Round != 5 || p.events[2].Graph != b || len(p.events[2].Reset) != 2 {
		t.Fatalf("reset event wrong: %+v", p.events[2])
	}
	// Scheduling is untouched: every node still wakes once per round.
	for v, c := range p.wakeCount {
		if c != 8 {
			t.Errorf("node %d woke %d times, want 8", v, c)
		}
	}
}

func TestDynamicEngineAsyncEventAtRoundBoundary(t *testing.T) {
	a, b := graph.Ring(5), graph.Line(5)
	sched := &flipSchedule{a: a, b: b, flipAt: 2}
	p := &topoProbe{probe: *newProbe(18)} // done within round 3
	if _, err := NewDynamic(sched, core.Asynchronous, p, 3).Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.events) != 2 || p.events[0].Round != 0 || p.events[0].Graph != a ||
		p.events[1].Round != 2 || p.events[1].Graph != b {
		t.Fatalf("async events = %+v, want round-0 alignment then a flip at round 2", p.events)
	}
}

// boundaryProbe holds the engine to TopologyAware's contract: it notes
// whether a round is open — BeginRound seen, EndRound or CommitRound not
// yet — and how many wakeups there were, and reports any event that
// arrives inside a round or, which also covers the asynchronous model, off
// a wakeup count that starts one.
type boundaryProbe struct {
	n         int
	open      bool
	wakes     atomic.Int64
	words     []uint64
	events    int
	violation string
}

func (p *boundaryProbe) Name() string          { return "boundary-probe" }
func (p *boundaryProbe) OnWake(core.NodeID)    { p.wakes.Add(1) }
func (p *boundaryProbe) BeginRound(int)        { p.open = true }
func (p *boundaryProbe) EndRound(int)          { p.open = false }
func (p *boundaryProbe) CommitRound(int)       { p.open = false }
func (p *boundaryProbe) Done() bool            { return false }
func (p *boundaryProbe) ActiveWords() []uint64 { return p.words }
func (p *boundaryProbe) WakeShard(lo, hi int) {
	for w := lo; w < hi; w++ {
		p.wakes.Add(int64(bits.OnesCount64(p.words[w])))
	}
}

func (p *boundaryProbe) OnTopologyChange(ev TopologyEvent) {
	p.events++
	wakes := int(p.wakes.Load())
	switch {
	case p.open:
		p.violation = fmt.Sprintf("event for round %d arrived inside an open round", ev.Round)
	case wakes != ev.Round*p.n:
		p.violation = fmt.Sprintf("event for round %d arrived after %d wakeups, want %d·%d", ev.Round, wakes, ev.Round, p.n)
	}
}

// TestTopologyEventsOnlyBetweenRounds: over every schedule kind, both time
// models and the sharded executor, a topology event reaches the protocol
// only at a round boundary — never between BeginRound and the EndRound or
// CommitRound that applies the round's staged deliveries, and in the
// asynchronous model only on a slot that starts a round. Protocols rely on
// this (sim.TopologyAware) instead of filtering what they staged.
func TestTopologyEventsOnlyBetweenRounds(t *testing.T) {
	base := graph.Torus(12, 12) // 144 nodes: three bitmap words to shard
	n := base.N()
	schedules := map[string]func() graph.Dynamic{
		"edge":   func() graph.Dynamic { return graph.NewEdgeFailures(base, 0.3, 5) },
		"burst":  func() graph.Dynamic { return graph.NewBurstFailures(base, 0.6, 8, 3, 5) },
		"rewire": func() graph.Dynamic { return graph.NewRewire(base, 0.25, 4, 5) },
		"churn":  func() graph.Dynamic { return graph.NewChurn(base, 0.2, 4, 5) },
		"grow":   func() graph.Dynamic { return graph.NewGrow(n, 2, 1, 5) },
		"flip": func() graph.Dynamic {
			return &flipSchedule{a: base, b: graph.Ring(n), flipAt: 7, resets: map[int][]core.NodeID{9: {1, 2}}}
		},
	}
	type mode struct {
		model  core.TimeModel
		shards int
	}
	for kind, build := range schedules {
		for _, m := range []mode{{core.Synchronous, 0}, {core.Synchronous, 2}, {core.Asynchronous, 0}} {
			p := &boundaryProbe{n: n}
			if m.shards > 0 {
				p.words = make([]uint64, (n+63)/64)
				for v := 0; v < n; v++ {
					p.words[v/64] |= 1 << (v % 64)
				}
			}
			_, err := NewDynamic(build(), m.model, p, 3, WithMaxRounds(24), WithShards(m.shards)).Run()
			if !errors.Is(err, ErrRoundLimit) {
				t.Fatalf("%s/%s/shards=%d: %v, want the round limit", kind, m.model, m.shards, err)
			}
			if p.violation != "" {
				t.Errorf("%s/%s/shards=%d: %s", kind, m.model, m.shards, p.violation)
			}
			if p.events < 2 {
				t.Errorf("%s/%s/shards=%d: %d topology events in 24 rounds; the schedule never changed",
					kind, m.model, m.shards, p.events)
			}
		}
	}
}

// TestDynamicStaticScheduleBitIdentical: driving a protocol through
// NewDynamic(graph.Static(g)) replays the exact trajectory of New(g).
func TestDynamicStaticScheduleBitIdentical(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
		pa := newProbe(997)
		ra, err := New(g, model, pa, 77).Run()
		if err != nil {
			t.Fatal(err)
		}
		pb := newProbe(997)
		rb, err := NewDynamic(graph.Static(g), model, pb, 77).Run()
		if err != nil {
			t.Fatal(err)
		}
		if ra.Rounds != rb.Rounds || ra.Timeslots != rb.Timeslots {
			t.Fatalf("%s: static schedule diverged: %+v vs %+v", model, ra, rb)
		}
		if len(pa.wakes) != len(pb.wakes) {
			t.Fatalf("%s: wake counts differ", model)
		}
		for i := range pa.wakes {
			if pa.wakes[i] != pb.wakes[i] {
				t.Fatalf("%s: wake sequences diverge at %d", model, i)
			}
		}
	}
}

// TestDynamicRequiresTopologyAware: a protocol without the hook is
// rejected on a genuinely dynamic schedule but allowed on Static.
func TestDynamicRequiresTopologyAware(t *testing.T) {
	g := graph.Ring(6)
	sched := &flipSchedule{a: g, b: graph.Line(6), flipAt: 1}
	_, err := NewDynamic(sched, core.Synchronous, newProbe(6), 1, WithMaxRounds(4)).Run()
	if err == nil || !strings.Contains(err.Error(), "TopologyAware") {
		t.Fatalf("err = %v, want TopologyAware rejection", err)
	}
	if _, err := NewDynamic(graph.Static(g), core.Synchronous, newProbe(6), 1).Run(); err != nil {
		t.Fatalf("static schedule must not require the hook: %v", err)
	}
}

func TestSelectorSetGraph(t *testing.T) {
	a := graph.Complete(6)
	b := graph.Line(6)
	rng := core.NewRand(4)

	u := NewUniform(a)
	u.SetGraph(b)
	for i := 0; i < 50; i++ {
		if p := u.Partner(0, rng); p != 1 {
			t.Fatalf("uniform partner after SetGraph = %d, want 1", p)
		}
	}

	r := NewRoundRobin(a)
	// Burn in cursors on the dense graph so they exceed line degrees.
	for i := 0; i < 5; i++ {
		r.Partner(2, rng)
	}
	r.SetGraph(b)
	seen := map[core.NodeID]int{}
	for i := 0; i < 4; i++ {
		p := r.Partner(2, rng)
		if !b.HasEdge(2, p) {
			t.Fatalf("round-robin partner %d not a line neighbor of 2", p)
		}
		seen[p]++
	}
	if seen[1] != 2 || seen[3] != 2 {
		t.Fatalf("round-robin cycle after SetGraph uneven: %v", seen)
	}

	// Both selectors satisfy the dynamic interface.
	var _ DynamicSelector = u
	var _ DynamicSelector = r
}
