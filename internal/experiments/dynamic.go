package experiments

import (
	"fmt"
	"io"

	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// E15DynamicTopology sweeps stopping time against topology dynamics:
// uniform algebraic gossip vs the uncoded baseline on a torus under
// i.i.d. per-round edge failures of increasing rate, plus churn and
// rewiring rows. The expected picture mirrors the A6 loss ablation —
// RLNC degrades by roughly the surviving-capacity factor because every
// delivered combination is still helpful with probability >= 1-1/q,
// while store-and-forward suffers the full coupon-collector slowdown —
// now driven through the graph.Dynamic engine path instead of packet
// loss on a static graph.
func E15DynamicTopology(w io.Writer, opt Options) error {
	side := opt.pick(4, 6)
	g := graph.Torus(side, side)
	k := g.N() / 2
	// E15 was recorded on the sweep's default seed layout, not runCell's
	// stream, so it keeps its own Spec literal.
	row := func(dyn *harness.Dynamics, proto harness.Protocol) (float64, error) {
		spec := harness.Spec{
			Graphs: []*graph.Graph{g}, Ks: []int{k}, Protocol: proto,
			Trials: opt.trials(), Seed: opt.Seed,
			Dynamics: dyn, MaxRounds: 1 << 16, Lean: true,
		}
		rs, err := harness.Runner{Parallel: opt.Parallel}.Run(&spec)
		if err != nil {
			return 0, err
		}
		return stats.Mean(rs.CellRounds(0)), nil
	}

	dynamics := []*harness.Dynamics{
		{Kind: "static"},
		{Kind: "edge", Rate: 0.1},
		{Kind: "edge", Rate: 0.25},
		{Kind: "edge", Rate: 0.5},
		{Kind: "burst", Rate: 0.6, Period: 32, Burst: 8},
		{Kind: "rewire", Rate: 0.2, Period: 16},
		{Kind: "churn", Rate: 0.1, Period: 16},
	}
	tbl := NewTable("dynamics", "uniform AG", "uncoded", "AG slowdown", "uncoded slowdown")
	var agBase, unBase float64
	for i, dyn := range dynamics {
		ag, err := row(dyn, harness.ProtocolUniformAG)
		if err != nil {
			return fmt.Errorf("E15 %s AG: %w", dyn, err)
		}
		un, err := row(dyn, harness.ProtocolUncoded)
		if err != nil {
			return fmt.Errorf("E15 %s uncoded: %w", dyn, err)
		}
		if i == 0 {
			agBase, unBase = ag, un
		}
		tbl.AddRow(dyn.String(), ag, un, ag/agBase, un/unBase)
	}
	fmt.Fprintf(w, "E15 — dynamic topologies on %s: stopping time vs failure rate / churn / rewiring\n", g.Name())
	fmt.Fprintln(w, "    expected: AG slowdown stays near the surviving-capacity factor; uncoded degrades faster")
	return tbl.Write(w)
}
