package experiments

import (
	"fmt"
	"io"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
	"algossip/internal/trace"
)

// E13Traffic compares total traffic (packets and bits on the wire) across
// protocols on the barbell: the paper's premise is bounded message sizes,
// so the interesting quantity is rounds *and* bits. TAG sends far fewer
// packets than uniform AG on bottlenecked graphs because its Phase 2
// packets flow only along tree edges; uncoded gossip pays the
// coupon-collector surcharge in useless packets.
func E13Traffic(w io.Writer, opt Options) error {
	n := opt.pick(24, 64)
	g := graph.Barbell(n)
	k := g.N()
	tbl := NewTable("protocol", "rounds", "packets sent", "helpful", "efficiency", "~Mbit total")

	runs := []struct {
		name  string
		proto harness.Protocol
	}{
		{"uniform AG", harness.ProtocolUniformAG},
		{"TAG+BRR", harness.ProtocolTAGRR},
		{"uncoded", harness.ProtocolUncoded},
	}
	// Every row is priced at the coded message size, (k+r)·log₂q bits —
	// what the first row's protocol reports.
	var bits int
	for i, r := range runs {
		rs, err := runCell(opt, g, k, r.proto,
			func(s *harness.Spec) { s.TrialSeed = opt.stream(700) })
		if err != nil {
			return fmt.Errorf("E13 %s: %w", r.name, err)
		}
		if i == 0 {
			bits = rs.Outcomes[0].MessageBits
		}
		var rounds float64
		var tr gossip.Traffic
		for _, o := range rs.Outcomes {
			rounds += float64(o.Result.Rounds)
			tr.Add(o.Traffic)
		}
		trials := float64(opt.trials())
		mbits := float64(tr.Sent) / trials * float64(bits) / 1e6
		tbl.AddRow(r.name, rounds/trials, float64(tr.Sent)/trials,
			float64(tr.Helpful)/trials, tr.Efficiency(), mbits)
	}
	fmt.Fprintf(w, "E13 — traffic accounting on %s, k=n=%d (message = %d bits)\n", g.Name(), k, bits)
	fmt.Fprintln(w, "    expected: TAG sends far fewer packets than uniform AG on bottlenecked graphs;")
	fmt.Fprintln(w, "    uncoded gossip wastes most receptions (low efficiency)")
	return tbl.Write(w)
}

// E14DisseminationCurve records per-node completion rounds (the trace
// subsystem, wired in through GossipSpec.Observer — a fresh recorder per
// trial, which a grid cell cannot carry, hence ParallelMap) and prints the
// dissemination CDF quantiles on the barbell. The distributional story
// behind E10: under uniform AG *every* node's completion is gated by the
// trickle of rank across the bridge, so the whole CDF — median included —
// sits at Θ(n²); TAG shifts the entire curve down to Θ(n).
func E14DisseminationCurve(w io.Writer, opt Options) error {
	n := opt.pick(24, 64)
	g := graph.Barbell(n)
	k := g.N()

	tbl := NewTable("protocol", "median node done", "p90", "last node done", "tail spread (max/med)")
	for _, r := range []struct {
		name  string
		proto harness.Protocol
	}{{"uniform AG", harness.ProtocolUniformAG}, {"TAG+BRR", harness.ProtocolTAGRR}} {
		summaries, err := harness.ParallelMap(opt.trials(), opt.parallel(),
			func(i int) (stats.Summary, error) {
				rec := trace.NewRecorder()
				spec := harness.GossipSpec{Graph: g, K: k, Observer: rec}
				if _, err := harness.Execute(spec, r.proto, core.SplitSeed(opt.Seed, uint64(800+i))); err != nil {
					return stats.Summary{}, err
				}
				return rec.Summary()
			})
		if err != nil {
			return fmt.Errorf("E14 %s: %w", r.name, err)
		}
		var meds, p90s, maxs []float64
		for _, s := range summaries {
			meds = append(meds, s.Median)
			p90s = append(p90s, s.P90)
			maxs = append(maxs, s.Max)
		}
		med := stats.Mean(meds)
		max := stats.Mean(maxs)
		tbl.AddRow(r.name, med, stats.Mean(p90s), max, max/med)
	}
	fmt.Fprintf(w, "E14 — dissemination curve on %s, k=n=%d (per-node completion quantiles)\n", g.Name(), k)
	fmt.Fprintln(w, "    expected: the entire uniform-AG CDF (median included) is gated by the bridge;")
	fmt.Fprintln(w, "    TAG shifts the whole curve down by the Θ(n) factor of E10")
	return tbl.Write(w)
}
