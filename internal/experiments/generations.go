package experiments

import (
	"fmt"
	"io"

	"algossip/internal/graph"
	"algossip/internal/harness"
)

// A7Generations is the generation-size ablation: split the k messages into
// generations of size g and gossip each independently. Per-packet overhead
// falls linearly in g while a coupon-collector penalty appears across
// generations, so total traffic (bits) is minimized at an intermediate g —
// the trade-off practical RLNC systems tune. The paper's protocol is the
// single-generation column (g = k): that column's rounds and packets are
// exactly the classic run's for the same seeds.
func A7Generations(w io.Writer, opt Options) error {
	n := opt.pick(16, 32)
	g := graph.Complete(n)
	k := g.N()
	tbl := NewTable("gen size", "generations", "rounds", "packets", "bits/packet", "~kbit total")
	for _, genSize := range []int{1, 4, k / 2, k} {
		if genSize < 1 || genSize > k {
			continue
		}
		rs, err := runCell(opt, g, k, harness.ProtocolUniformAG, func(s *harness.Spec) {
			s.GenSize, s.TrialSeed = genSize, opt.stream(950)
		})
		if err != nil {
			return fmt.Errorf("A7 g=%d: %w", genSize, err)
		}
		outs := rs.Outcomes
		var rounds, packets float64
		for _, o := range outs {
			rounds += float64(o.Result.Rounds)
			packets += float64(o.Traffic.Sent)
		}
		trials := float64(opt.trials())
		bits := outs[0].MessageBits
		tbl.AddRow(genSize, (k+genSize-1)/genSize, rounds/trials, packets/trials,
			bits, packets/trials*float64(bits)/1e3)
	}
	fmt.Fprintf(w, "A7 — ablation: RLNC generation size on %s, k=n=%d\n", g.Name(), k)
	fmt.Fprintln(w, "    expected: rounds fall as g grows (less coupon-collecting); bits/packet")
	fmt.Fprintln(w, "    grow with g; total bits minimized at an intermediate generation size")
	return tbl.Write(w)
}
