package experiments

import (
	"fmt"
	"io"

	"algossip/internal/harness"
	"algossip/internal/stats"
)

// e18Fracs and e18Modes span the adversarial grid: every Byzantine
// behavior at fractions up to the 0.2 gate point.
var (
	e18Fracs = []float64{0.1, 0.2}
	e18Modes = []string{"pollute", "replay", "freeride"}
)

// e18Run executes one E18 cell: uniform AG on a complete graph with the
// given adversary declaration (nil = the all-honest baseline). Everything
// except the adversary is held fixed, so the dilation column isolates the
// Byzantine population's effect.
func e18Run(n, k int, adv *harness.Adversary, opt Options) (*harness.ResultSet, error) {
	// A 3σ gate needs a non-degenerate σ estimate on both sides; the
	// quick-mode default of 2 trials makes the sample deviation a coin
	// flip, so E18 floors the repetition count at 4.
	trials := opt.trials()
	if trials < 4 {
		trials = 4
	}
	spec := harness.Spec{
		Name:  "E18",
		Graph: "complete", Sizes: []int{n},
		KMode:     fmt.Sprintf("const:%d", k),
		Adversary: adv,
		Trials:    trials,
		Seed:      opt.Seed,
		Lean:      true,
	}
	return harness.Runner{Parallel: opt.parallel()}.Run(&spec)
}

// e18Bound is the modeled dilation bound: with a fraction f of nodes
// Byzantine, a uniform-gossip contact leg is productive only when its
// sender is honest AND (in the worst accounting) its receiver is honest
// too — Byzantine senders emit nothing useful in any mode, and packets
// landing at Byzantine nodes never propagate further. The per-leg useful
// probability therefore scales by at least (1-f)², so the stopping time
// dilates by at most 1/(1-f)² over the honest baseline. The baseline is
// taken at its own mean+3σ, making the bound a 3σ-vs-3σ comparison.
func e18Bound(baseGate, frac float64) float64 {
	return baseGate / ((1 - frac) * (1 - frac))
}

// E18Adversarial is the adversarial-regime gate (E18): uniform
// algebraic gossip on a complete graph with a Byzantine node population
// drawn per trial — non-innovative replay, corrupt-coefficient pollution,
// or silent free-riding — at fractions up to 0.2. For every (mode, frac)
// cell it gates mean+3σ of the stopping time against the modeled dilation
// bound base·(1-f)^-2 (base = the in-experiment honest baseline's
// mean+3σ), and reports the per-trial verification cost the honest nodes
// paid screening Byzantine traffic. A VIOLATION row means honest-node
// convergence degraded more than the model allows — the robustness claim
// fails; a NOCONVERGE row means some trial never reached full rank at
// all. The fraction-0.2 gate also runs standalone in
// TestE18AdversarialGate.
func E18Adversarial(w io.Writer, opt Options) error {
	n := opt.pick(64, 128)
	k := n / 2

	base, err := e18Run(n, k, nil, opt)
	if err != nil {
		return fmt.Errorf("E18 baseline: %w", err)
	}
	sBase := stats.Summarize(base.CellRounds(0))
	baseGate := sBase.Mean + 3*sBase.StdDev

	tbl := NewTable("mode", "frac", "rounds mean", "sd", "mean+3sd", "bound base/(1-f)^2", "verify ops/trial", "gate")
	tbl.AddRow("honest", 0.0, sBase.Mean, sBase.StdDev, baseGate, baseGate, 0, "ok")
	for _, mode := range e18Modes {
		for _, frac := range e18Fracs {
			rs, err := e18Run(n, k, &harness.Adversary{Kind: "byzantine", Frac: frac, Mode: mode}, opt)
			if err != nil {
				return fmt.Errorf("E18 %s f=%g: %w", mode, frac, err)
			}
			s := stats.Summarize(rs.CellRounds(0))
			bound := e18Bound(baseGate, frac)
			gated := s.Mean + 3*s.StdDev
			verdict := "ok"
			var vops float64
			for _, o := range rs.Outcomes {
				if !o.Result.Completed {
					verdict = "NOCONVERGE VIOLATION"
				}
				vops += float64(o.Traffic.VerifyOps)
			}
			vops /= float64(len(rs.Outcomes))
			if verdict == "ok" && gated > bound {
				verdict = "VIOLATION"
			}
			if verdict == "ok" && vops == 0 {
				// Adversarial runs must pay for verification; a zero here
				// means the accounting (or the adversary) silently vanished.
				verdict = "WARNING no verification"
			}
			tbl.AddRow(mode, frac, s.Mean, s.StdDev, gated, bound, vops, verdict)
		}
	}
	fmt.Fprintln(w, "E18 — adversarial-regime gate: uniform AG on a complete graph with Byzantine nodes (replay / pollution / free-riding)")
	fmt.Fprintln(w, "    gate: every node (honest and Byzantine) reaches full rank, with mean+3σ within base·(1-f)^-2 of the honest baseline's mean+3σ")
	return tbl.Write(w)
}
