package experiments

import (
	"fmt"
	"io"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
)

// A5SyncVsAsync compares the two time models the paper analyzes side by
// side: Theorem 1 gives the same O((k+log n+D)Δ) bound for both, so the
// async/sync round ratio should be a modest constant on every topology.
func A5SyncVsAsync(w io.Writer, opt Options) error {
	n := opt.pick(24, 48)
	graphs := []*graph.Graph{
		graph.Line(n),
		graph.Grid(isqrt(n), isqrt(n)),
		graph.Complete(n),
		graph.Barbell(n),
		graph.BinaryTree(n - 1),
	}
	tbl := NewTable("graph", "k", "sync rounds", "async rounds", "async/sync")
	for _, g := range graphs {
		k := g.N() / 2
		syncMean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG, nil)
		if err != nil {
			return fmt.Errorf("A5 sync %s: %w", g.Name(), err)
		}
		asyncMean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG,
			func(s *harness.Spec) { s.Model = core.Asynchronous })
		if err != nil {
			return fmt.Errorf("A5 async %s: %w", g.Name(), err)
		}
		tbl.AddRow(g.Name(), k, syncMean, asyncMean, asyncMean/syncMean)
	}
	fmt.Fprintln(w, "A5 — ablation: synchronous vs asynchronous time model (uniform AG)")
	fmt.Fprintln(w, "    expected: ratio a modest constant on every topology (same Theorem 1 bound)")
	return tbl.Write(w)
}

// A6LossRobustness injects i.i.d. packet loss into uniform algebraic
// gossip. Because any surviving random combination is helpful with
// probability >= 1-1/q, the expected slowdown is ~1/(1-p) — no
// retransmission machinery needed. This is the failure-injection
// experiment for the coding layer.
func A6LossRobustness(w io.Writer, opt Options) error {
	n := opt.pick(25, 64)
	s := isqrt(n)
	g := graph.Grid(s, s)
	k := g.N() / 2
	tbl := NewTable("loss p", "rounds", "slowdown", "1/(1-p) ref")
	var base float64
	for _, p := range []float64{0, 0.1, 0.3, 0.5} {
		mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG,
			func(s *harness.Spec) { s.LossRate = p })
		if err != nil {
			return fmt.Errorf("A6 p=%v: %w", p, err)
		}
		if p == 0 {
			base = mean
		}
		tbl.AddRow(p, mean, mean/base, 1/(1-p))
	}
	fmt.Fprintf(w, "A6 — failure injection: packet loss on %s, k=%d\n", g.Name(), k)
	fmt.Fprintln(w, "    expected: slowdown tracks 1/(1-p); protocol always completes")
	return tbl.Write(w)
}
