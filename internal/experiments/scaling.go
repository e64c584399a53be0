package experiments

import (
	"fmt"
	"io"
	"runtime"

	"algossip/internal/core"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// e16K picks the message count for a web-scale cell: k grows linearly
// with n (the regime where the paper's O(Δ(k+D+log n)) bound reads O(n)
// on an expander). The floor matters: the bound charges Δ = 4 rounds per
// message while measured cost is well under one round per message, so
// the gate's slack lives in the k-term. A small-k cell would lean on the
// additive D + log n terms alone — and D is estimated by a lower bound
// (DiameterApprox), leaving no headroom. Flooring at 32 keeps quick-mode
// cells in the same message-dominated balance as the n = 10^5 cells.
func e16K(n int) int {
	k := n / 1000
	if k < 32 {
		k = 32
	}
	return k
}

// E16WebScale is the web-scale conformance experiment (E16): uniform
// algebraic gossip with generation-based coding on a random
// 4-regular expander, k ∝ n, executed through the sharded engine. For
// each size it gates mean + 3σ of the stopping time against the Theorem 1
// bound Δ·(k+D+log n) — which is Θ(n) here since k = Θ(n) and D, log n
// are O(log n) — and prints the measured/bound ratio. A ratio drifting
// toward 1 or a VIOLATION row means the O(n) claim fails at scale.
//
// Quick mode stays at n ≤ 8·10^3 for CI; full mode climbs to n = 10^5
// (about a minute per trial single-threaded — see EXPERIMENTS.md for the
// scaling recipe). The n ≥ 10^5 gate also runs standalone in
// TestE16WebScaleGate.
func E16WebScale(w io.Writer, opt Options) error {
	var sizes []int
	if opt.Quick {
		sizes = []int{2000, 4000, 8000}
	} else {
		sizes = []int{25000, 50000, 100000}
	}
	tbl := NewTable("n", "k", "g", "rounds mean", "sd", "mean+3sd", "bound Δ(k+D+log n)", "ratio", "gate")
	for _, n := range sizes {
		k := e16K(n)
		genSize := k / 4
		if genSize < 2 {
			genSize = 2
		}
		g, err := graph.FromName("randreg", n, core.NewRand(core.SplitSeed(opt.Seed, 999)))
		if err != nil {
			return fmt.Errorf("E16 n=%d: %w", n, err)
		}
		spec := harness.Spec{
			Name:   fmt.Sprintf("E16-n%d", n),
			Graphs: []*graph.Graph{g},
			Ks:     []int{k},
			// Single source is the paper's dissemination setting and the
			// one where retirement keeps the saturated region quiet.
			SingleSource: true,
			GenSize:      genSize,
			// Cores go to intra-trial sharding rather than the trial pool:
			// at n = 10^5 one trial is the whole machine's working set.
			Shards:    runtime.GOMAXPROCS(0),
			Trials:    opt.trials(),
			Seed:      opt.Seed,
			MaxRounds: 1 << 18,
			Lean:      true,
		}
		rs, err := harness.Runner{Parallel: 1}.Run(&spec)
		if err != nil {
			return fmt.Errorf("E16 n=%d: %w", n, err)
		}
		s := stats.Summarize(rs.CellRounds(0))
		// The exact Diameter() is O(n·m), which at n = 10^5 costs more
		// than the simulation it bounds. DiameterApprox (double BFS) is a
		// lower bound on D, so the gate is conservative (a smaller bound
		// is harder to stay under).
		bound := algebraic.Theorem1Bound(g.N(), k, g.DiameterApprox(), g.MaxDegree())
		gated := s.Mean + 3*s.StdDev
		verdict := "ok"
		if gated > bound {
			verdict = "VIOLATION"
		}
		tbl.AddRow(n, k, genSize, s.Mean, s.StdDev, gated, bound, s.Mean/bound, verdict)
	}
	fmt.Fprintln(w, "E16 — web-scale O(n) conformance: generation-coded AG on a random 4-regular expander, k ∝ n, sharded engine")
	fmt.Fprintln(w, "    gate: mean + 3σ of the stopping time stays under Δ·(k+D+log n); D is the double-BFS estimate (conservative)")
	return tbl.Write(w)
}
