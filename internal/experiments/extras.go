package experiments

import (
	"fmt"
	"io"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// E10BarbellSpeedup regenerates the Section 1.1 claim: on the barbell
// graph, uniform algebraic gossip needs Ω(n²) rounds for all-to-all
// (k = n) while TAG+B_RR needs Θ(n) — a speedup ratio of order n. The
// measured exponents of both curves are fitted.
func E10BarbellSpeedup(w io.Writer, opt Options) error {
	sizes := []int{16, 32, 48}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 96, 128}
	}
	tbl := NewTable("n", "uniform AG", "TAG+BRR", "speedup", "n (ref)")
	var xs, yAG, yTAG []float64
	for _, n := range sizes {
		g := graph.Barbell(n)
		agMean, err := meanRounds(opt, g, n, harness.ProtocolUniformAG, nil)
		if err != nil {
			return fmt.Errorf("E10 AG n=%d: %w", n, err)
		}
		tagMean, err := meanRounds(opt, g, n, harness.ProtocolTAGRR, nil)
		if err != nil {
			return fmt.Errorf("E10 TAG n=%d: %w", n, err)
		}
		tbl.AddRow(n, agMean, tagMean, agMean/tagMean, n)
		xs = append(xs, float64(n))
		yAG = append(yAG, agMean)
		yTAG = append(yTAG, tagMean)
	}
	_, expAG, _ := stats.PowerFit(xs, yAG)
	_, expTAG, _ := stats.PowerFit(xs, yTAG)
	fmt.Fprintln(w, "E10 — Section 1.1: barbell showdown, uniform AG Ω(n²) vs TAG Θ(n)")
	fmt.Fprintf(w, "    fitted exponents: uniform AG n^%.2f (expect ~2), TAG n^%.2f (expect ~1)\n",
		expAG, expTAG)
	return tbl.Write(w)
}

// E11LowerBoundFloor validates the Ω(k) information-theoretic floor from
// the proof of Theorem 3: with EXCHANGE, at most 2n messages move per
// synchronous round, so k-dissemination needs at least k(n-1)/2n rounds —
// on every topology.
func E11LowerBoundFloor(w io.Writer, opt Options) error {
	n := opt.pick(24, 48)
	graphs := []*graph.Graph{
		graph.Line(n), graph.Complete(n), graph.Star(n), graph.Barbell(n),
	}
	tbl := NewTable("graph", "k", "rounds", "floor k(n-1)/2n", "rounds/floor")
	for _, g := range graphs {
		for _, k := range []int{g.N() / 2, g.N()} {
			mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG, nil)
			if err != nil {
				return fmt.Errorf("E11 %s k=%d: %w", g.Name(), k, err)
			}
			floor := float64(k*(g.N()-1)) / float64(2*g.N())
			marker := ""
			if mean < floor {
				marker = " VIOLATION"
			}
			tbl.AddRow(g.Name(), k, mean, floor, fmt.Sprintf("%.2f%s", mean/floor, marker))
		}
	}
	fmt.Fprintln(w, "E11 — Theorem 3 proof: Ω(k) lower bound floor holds on every topology")
	fmt.Fprintln(w, "    expected: rounds/floor >= 1 everywhere")
	return tbl.Write(w)
}

// E12CompleteGraph reproduces the Deb et al. setting the paper builds on:
// uniform algebraic gossip on the complete graph with k = n messages
// finishes in Θ(n) rounds (rounds/k flat), for EXCHANGE as well as the
// original PUSH and PULL variants.
func E12CompleteGraph(w io.Writer, opt Options) error {
	sizes := []int{16, 32, 64}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 128}
	}
	tbl := NewTable("n=k", "action", "rounds", "rounds/k")
	for _, n := range sizes {
		g := graph.Complete(n)
		for _, action := range []core.Action{core.Exchange, core.Push, core.Pull} {
			mean, err := meanRounds(opt, g, n, harness.ProtocolUniformAG,
				func(s *harness.Spec) { s.Action = action })
			if err != nil {
				return fmt.Errorf("E12 n=%d %v: %w", n, action, err)
			}
			tbl.AddRow(n, action.String(), mean, mean/float64(n))
		}
	}
	fmt.Fprintln(w, "E12 — Deb et al. baseline: complete graph, k=n, Θ(k) rounds")
	fmt.Fprintln(w, "    expected: rounds/k flat in n for all actions")
	return tbl.Write(w)
}

// A1FieldSize is the field-size ablation: larger q raises the helpfulness
// probability 1-1/q, shrinking the coding overhead; beyond q=16 returns
// diminish. The paper's bounds assume the worst case q=2.
func A1FieldSize(w io.Writer, opt Options) error {
	n := opt.pick(25, 64)
	s := isqrt(n)
	g := graph.Grid(s, s)
	k := g.N() / 2
	tbl := NewTable("q", "rounds", "vs q=2")
	var base float64
	for _, q := range []int{2, 4, 16, 256} {
		mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG,
			func(s *harness.Spec) { s.Q = q })
		if err != nil {
			return fmt.Errorf("A1 q=%d: %w", q, err)
		}
		if q == 2 {
			base = mean
		}
		tbl.AddRow(q, mean, mean/base)
	}
	fmt.Fprintf(w, "A1 — ablation: field size on %s, k=%d\n", g.Name(), k)
	fmt.Fprintln(w, "    expected: mild speedup from q=2 to q=16, flat after")
	return tbl.Write(w)
}

// A2Action is the action ablation: EXCHANGE vs PUSH vs PULL under uniform
// gossip on contrasting topologies.
func A2Action(w io.Writer, opt Options) error {
	n := opt.pick(24, 48)
	graphs := []*graph.Graph{graph.Line(n), graph.Complete(n), graph.Star(n)}
	tbl := NewTable("graph", "EXCHANGE", "PUSH", "PULL")
	for _, g := range graphs {
		k := g.N() / 2
		row := []any{g.Name()}
		for _, action := range []core.Action{core.Exchange, core.Push, core.Pull} {
			mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG,
				func(s *harness.Spec) { s.Action = action })
			if err != nil {
				return fmt.Errorf("A2 %s/%v: %w", g.Name(), action, err)
			}
			row = append(row, mean)
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, "A2 — ablation: gossip action (uniform selector, k=n/2)")
	fmt.Fprintln(w, "    expected: EXCHANGE fastest; PUSH suffers on star hubs, PULL mirrors")
	return tbl.Write(w)
}

// A3Uncoded is the coding ablation: RLNC vs store-and-forward gossip on the
// complete graph with k = n (the coupon-collector gap that motivates
// algebraic gossip).
func A3Uncoded(w io.Writer, opt Options) error {
	sizes := []int{16, 32, 64}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 128}
	}
	tbl := NewTable("n=k", "RLNC", "uncoded", "uncoded/RLNC")
	for _, n := range sizes {
		g := graph.Complete(n)
		coded, err := meanRounds(opt, g, n, harness.ProtocolUniformAG, nil)
		if err != nil {
			return fmt.Errorf("A3 coded n=%d: %w", n, err)
		}
		plain, err := meanRounds(opt, g, n, harness.ProtocolUncoded, nil)
		if err != nil {
			return fmt.Errorf("A3 uncoded n=%d: %w", n, err)
		}
		tbl.AddRow(n, coded, plain, plain/coded)
	}
	fmt.Fprintln(w, "A3 — ablation: RLNC vs uncoded store-and-forward (complete graph, k=n)")
	fmt.Fprintln(w, "    expected: ratio grows with n (coupon-collector log factor)")
	return tbl.Write(w)
}

// A4RankOnly verifies the rank-only fast path is measurement-equivalent:
// with the same seeds and q=256, payload-mode and rank-only runs take
// exactly the same number of rounds (payloads never influence rank
// evolution). One seed drives the two runs of a pair, which a grid cell
// cannot say, so the pairs fan out over ParallelMap.
func A4RankOnly(w io.Writer, opt Options) error {
	n := opt.pick(16, 36)
	s := isqrt(n)
	g := graph.Grid(s, s)
	k := g.N() / 2
	tbl := NewTable("seed", "rank-only rounds", "payload rounds", "equal")
	type pair struct{ ro, pl int }
	pairs, err := harness.ParallelMap(opt.trials(), opt.Parallel, func(i int) (pair, error) {
		seed := core.SplitSeed(opt.Seed, uint64(900+i))
		spec := harness.GossipSpec{Graph: g, K: k, Q: 256, Lean: true}
		ro, err := harness.Execute(spec, harness.ProtocolUniformAG, seed)
		if err != nil {
			return pair{}, fmt.Errorf("A4 rank-only: %w", err)
		}
		spec.PayloadLen = 4
		pl, err := harness.Execute(spec, harness.ProtocolUniformAG, seed)
		if err != nil {
			return pair{}, fmt.Errorf("A4 payload: %w", err)
		}
		return pair{ro.Result.Rounds, pl.Result.Rounds}, nil
	})
	if err != nil {
		return err
	}
	allEqual := true
	for i, p := range pairs {
		eq := "yes"
		if p.ro != p.pl {
			eq = "NO"
			allEqual = false
		}
		tbl.AddRow(i, p.ro, p.pl, eq)
	}
	fmt.Fprintln(w, "A4 — ablation: rank-only fast path vs full payload decode (q=256, same seeds)")
	if allEqual {
		fmt.Fprintln(w, "    result: identical round counts — payloads never affect stopping time")
	} else {
		fmt.Fprintln(w, "    WARNING: round counts diverged; fast path is not faithful")
	}
	return tbl.Write(w)
}
