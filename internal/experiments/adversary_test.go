package experiments

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// TestE18AdversarialGate is E18's adversarial-regime gate:
// uniform AG on a complete graph with a Byzantine fraction of 0.2 —
// the worst declared mode grid — must still bring every node to full
// rank, with mean+3σ of the stopping time within the modeled dilation
// bound base·(1-f)^-2 of the honest baseline's mean+3σ. The quick-mode
// E18 table (exercised by TestAllExperimentsQuick) covers the same grid
// at small n and 2 trials; this test runs the gate point at full size
// with more trials, so it skips in -short and under the race detector.
func TestE18AdversarialGate(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial gate skipped in -short")
	}
	if core.RaceEnabled {
		t.Skip("adversarial gate skipped under the race detector")
	}
	const (
		n    = 128
		frac = 0.2
		seed = 42
	)
	opt := Options{Seed: seed, Trials: 6}
	k := n / 2

	base, err := e18Run(n, k, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	sBase := stats.Summarize(base.CellRounds(0))
	baseGate := sBase.Mean + 3*sBase.StdDev
	bound := e18Bound(baseGate, frac)

	for _, mode := range e18Modes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			rs, err := e18Run(n, k, &harness.Adversary{Kind: "byzantine", Frac: frac, Mode: mode}, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range rs.Outcomes {
				if !o.Result.Completed {
					t.Fatalf("trial %d never converged under %s at f=%g", i, mode, frac)
				}
				if o.Traffic.Verified == 0 {
					t.Fatalf("trial %d paid no verification under an active adversary", i)
				}
			}
			s := stats.Summarize(rs.CellRounds(0))
			gated := s.Mean + 3*s.StdDev
			t.Logf("%s f=%g: rounds %v, gate %.1f vs bound %.1f (base %.1f)",
				mode, frac, s, gated, bound, baseGate)
			if gated > bound {
				t.Errorf("dilation gate violated: mean+3σ = %.1f exceeds base·(1-f)^-2 = %.1f", gated, bound)
			}
		})
	}
}
