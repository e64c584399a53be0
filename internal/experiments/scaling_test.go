package experiments

import (
	"runtime"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// TestE16WebScaleGate is E16's n >= 10^5 conformance gate:
// generation-coded uniform AG on a random 4-regular expander with
// 10^5 nodes must stop within the Theorem 1 bound Δ·(k+D+log n) at three
// standard deviations. The quick-mode E16 table (exercised by
// TestAllExperimentsQuick) covers the same gate at small n; this test is
// the one that actually runs at web scale, so it skips in -short and
// under the race detector (~20 s/trial clean, minutes raced).
func TestE16WebScaleGate(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n gate skipped in -short")
	}
	if core.RaceEnabled {
		t.Skip("large-n gate skipped under the race detector")
	}
	const (
		n       = 100000
		k       = 32
		genSize = 8
		seed    = 42
	)
	g, err := graph.FromName("randreg", n, core.NewRand(core.SplitSeed(seed, 999)))
	if err != nil {
		t.Fatal(err)
	}
	spec := harness.Spec{
		Name:         "E16-gate",
		Graphs:       []*graph.Graph{g},
		Ks:           []int{k},
		SingleSource: true,
		GenSize:      genSize,
		// One trial at a time owns the machine; cores split the trial.
		Shards:    runtime.GOMAXPROCS(0),
		Trials:    3,
		Seed:      seed,
		MaxRounds: 1 << 18,
		Lean:      true,
	}
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.Summarize(rs.CellRounds(0))
	bound := algebraic.Theorem1Bound(g.N(), k, g.DiameterApprox(), g.MaxDegree())
	t.Logf("n=%d k=%d g=%d: rounds %v, gate %.1f vs bound %.1f (ratio %.2f)",
		n, k, genSize, s, s.Mean+3*s.StdDev, bound, s.Mean/bound)
	if gated := s.Mean + 3*s.StdDev; gated > bound {
		t.Errorf("O(n) conformance violated: mean+3σ = %.1f exceeds Δ·(k+D+log n) = %.1f", gated, bound)
	}
}
