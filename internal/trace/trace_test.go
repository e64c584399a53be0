package trace

import (
	"sync"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if len(r.Events()) != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.NodeDone(3, 5)
	r.NodeDone(1, 2)
	r.NodeDone(2, 5)
	if got := len(r.Events()); got != 3 {
		t.Fatalf("%d events recorded, want 3", got)
	}
	rounds := r.CompletionRounds()
	want := []float64{2, 5, 5}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("CompletionRounds = %v", rounds)
		}
	}
	s, err := r.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Max != 5 || s.Min != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummaryEmpty(t *testing.T) {
	if _, err := NewRecorder().Summary(); err == nil {
		t.Fatal("empty summary must error")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.NodeDone(core.NodeID(i), i)
		}(i)
	}
	wg.Wait()
	if got := len(r.Events()); got != 50 {
		t.Fatalf("%d events recorded, want 50", got)
	}
}

// TestRecorderWiredIntoProtocol runs a real simulation with the recorder as
// observer and cross-checks the recorded stopping time with the engine's.
func TestRecorderWiredIntoProtocol(t *testing.T) {
	g := graph.Grid(4, 4)
	rec := NewRecorder()
	p, err := algebraic.New(g, core.Synchronous, sim.NewUniform(g),
		algebraic.Config{RLNC: rlnc.Config{Field: gf.MustNew(2), K: 8, RankOnly: true}},
		core.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	p.SetObserver(rec)
	if err := p.SeedAll(algebraic.RoundRobinAssign(8, 16), nil); err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, core.Synchronous, p, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Events()); got != g.N() {
		t.Fatalf("recorded %d completions, want %d", got, g.N())
	}
	s, err := rec.Summary()
	if err != nil {
		t.Fatal(err)
	}
	// The engine's reported stopping time is the round after the last
	// completion lands (Done is checked at round start).
	if int(s.Max) > res.Rounds {
		t.Fatalf("last completion at round %v, engine reported %d", s.Max, res.Rounds)
	}
}
