package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"algossip/internal/conductance"
	"algossip/internal/core"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/gossip/ispread"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks sizes and trial counts for CI-speed runs.
	Quick bool
	// Seed roots all trial randomness.
	Seed uint64
	// Trials overrides the per-point repetition count (0 = default).
	Trials int
	// Parallel bounds concurrent trials in the harness pool (0 = all
	// cores). Results are byte-identical for any value.
	Parallel int
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return 2
	}
	return 4
}

func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

func log2(n int) float64 { return math.Log2(float64(n)) }

// E1UniformAGAnyGraph regenerates Table 1 row 1: uniform algebraic gossip
// on arbitrary graphs, measured stopping time against the O((k+log n+D)Δ)
// bound, for both time models.
func E1UniformAGAnyGraph(w io.Writer, opt Options) error {
	n := opt.pick(24, 48)
	rng := core.NewRand(core.SplitSeed(opt.Seed, 77))
	graphs := []*graph.Graph{
		graph.Line(n),
		graph.Ring(n),
		graph.Grid(isqrt(n), isqrt(n)),
		graph.BinaryTree(n - 1),
		graph.Complete(n),
		graph.Barbell(n),
		graph.ErdosRenyi(n, 4.0/float64(n), rng),
	}
	tbl := NewTable("graph", "model", "k", "rounds(mean)", "bound(k+logn+D)Δ", "ratio")
	for _, g := range graphs {
		k := g.N() / 2
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG,
				func(s *harness.Spec) { s.Model = model })
			if err != nil {
				return fmt.Errorf("E1 %s/%s: %w", g.Name(), model, err)
			}
			bound := algebraic.Theorem1Bound(g.N(), k, g.Diameter(), g.MaxDegree())
			tbl.AddRow(g.Name(), model.String(), k, mean, bound, mean/bound)
		}
	}
	fmt.Fprintln(w, "E1 — Theorem 1 / Table 1 row 1: uniform algebraic gossip, any graph")
	fmt.Fprintln(w, "    expected: ratio bounded by a constant (measured / analytic bound)")
	return tbl.Write(w)
}

// E2ConstDegreeOptimal regenerates Table 1 row 2: on constant-maximum-
// degree graphs the stopping time is Θ(k + D) — the measured/(k+D) ratio
// stays flat as n scales and the fitted exponent of rounds vs (k+D) is ~1.
func E2ConstDegreeOptimal(w io.Writer, opt Options) error {
	sizes := []int{16, 32, 64}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 128, 256}
	}
	families := []struct {
		name string
		make func(n int) *graph.Graph
	}{
		{"line", graph.Line},
		{"ring", graph.Ring},
		{"grid", func(n int) *graph.Graph { s := isqrt(n); return graph.Grid(s, s) }},
		{"binary-tree", graph.BinaryTree},
	}
	tbl := NewTable("family", "n", "k", "D", "rounds", "rounds/(k+D)", "fit exp")
	for _, fam := range families {
		var xs, ys []float64
		rows := make([][]any, 0, len(sizes))
		for _, n := range sizes {
			g := fam.make(n)
			k := g.N() / 2
			d := g.Diameter()
			mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG, nil)
			if err != nil {
				return fmt.Errorf("E2 %s n=%d: %w", fam.name, n, err)
			}
			xs = append(xs, float64(k+d))
			ys = append(ys, mean)
			rows = append(rows, []any{fam.name, g.N(), k, d, mean, mean / float64(k+d)})
		}
		_, exp, _ := stats.PowerFit(xs, ys)
		for i, r := range rows {
			if i == len(rows)-1 {
				r = append(r, exp)
			} else {
				r = append(r, "")
			}
			tbl.AddRow(r...)
		}
	}
	fmt.Fprintln(w, "E2 — Theorem 3 / Table 1 row 2: Θ(k+D) on constant-degree graphs")
	fmt.Fprintln(w, "    expected: rounds/(k+D) flat in n; fitted exponent of rounds vs (k+D) ≈ 1")
	return tbl.Write(w)
}

// E3TAGGeneral regenerates Table 1 row 3: TAG's stopping time against the
// O(k + log n + d(S) + t(S)) expression, for all three spanning-tree
// protocols, on a bottlenecked and a flat topology.
func E3TAGGeneral(w io.Writer, opt Options) error {
	n := opt.pick(24, 64)
	graphs := []*graph.Graph{graph.Barbell(n), graph.Grid(isqrt(n), isqrt(n)), graph.Line(n)}
	trees := []struct {
		name  string
		proto harness.Protocol
	}{{"BRR", harness.ProtocolTAGRR}, {"uniform-B", harness.ProtocolTAGUniform}, {"IS", harness.ProtocolTAGIS}}
	tbl := NewTable("graph", "tree S", "k", "rounds", "t(S)", "d(S)", "k+logn+d+t", "ratio")
	for _, g := range graphs {
		k := g.N()
		for _, tree := range trees {
			rs, err := runCell(opt, g, k, tree.proto,
				func(s *harness.Spec) { s.TrialSeed = opt.stream(300) })
			if err != nil {
				return fmt.Errorf("E3 %s/%s: %w", g.Name(), tree.name, err)
			}
			var sumRounds, sumBound float64
			var lastT, lastD int
			for _, o := range rs.Outcomes {
				tS := o.TreeRounds
				if tS < 0 {
					tS = o.Result.Rounds
				}
				dS := o.TreeDiameter
				sumRounds += float64(o.Result.Rounds)
				sumBound += float64(k) + log2(g.N()) + float64(dS) + float64(tS)
				lastT, lastD = tS, dS
			}
			mean := sumRounds / float64(opt.trials())
			meanBound := sumBound / float64(opt.trials())
			tbl.AddRow(g.Name(), tree.name, k, mean, lastT, lastD, meanBound, mean/meanBound)
		}
	}
	fmt.Fprintln(w, "E3 — Theorem 4 / Table 1 row 3: TAG = O(k + log n + d(S) + t(S))")
	fmt.Fprintln(w, "    expected: ratio bounded by a small constant for every S and topology")
	return tbl.Write(w)
}

// E4TAGRoundRobin regenerates Table 1 row 4 and Theorem 5: B_RR broadcast
// completes within 3n synchronous rounds (probability 1), and TAG+B_RR
// with k = n finishes in Θ(n) rounds on any graph — fitted exponent ≈ 1
// even on the barbell.
func E4TAGRoundRobin(w io.Writer, opt Options) error {
	sizes := []int{16, 32, 64}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 128}
	}
	families := []struct {
		name string
		make func(n int) *graph.Graph
	}{
		{"barbell", graph.Barbell},
		{"line", graph.Line},
		{"complete", graph.Complete},
	}
	tbl := NewTable("family", "n", "BRR rounds", "<=3n", "TAG rounds (k=n)", "TAG/n", "fit exp")
	for _, fam := range families {
		var xs, ys []float64
		rows := make([][]any, 0, len(sizes))
		for _, n := range sizes {
			g := fam.make(n)
			bres, _, err := harness.Broadcast(g, core.Synchronous, harness.SelRoundRobin, core.SplitSeed(opt.Seed, uint64(n)))
			if err != nil {
				return fmt.Errorf("E4 broadcast %s n=%d: %w", fam.name, n, err)
			}
			ok := "yes"
			if bres.Rounds > 3*g.N() {
				ok = "NO"
			}
			mean, err := meanRounds(opt, g, g.N(), harness.ProtocolTAGRR, nil)
			if err != nil {
				return fmt.Errorf("E4 TAG %s n=%d: %w", fam.name, n, err)
			}
			xs = append(xs, float64(g.N()))
			ys = append(ys, mean)
			rows = append(rows, []any{fam.name, g.N(), bres.Rounds, ok, mean, mean / float64(g.N())})
		}
		_, exp, _ := stats.PowerFit(xs, ys)
		for i, r := range rows {
			if i == len(rows)-1 {
				r = append(r, exp)
			} else {
				r = append(r, "")
			}
			tbl.AddRow(r...)
		}
	}
	fmt.Fprintln(w, "E4 — Theorem 5 / Table 1 row 4: TAG+B_RR = Θ(n) for k = Ω(n), any graph")
	fmt.Fprintln(w, "    expected: BRR <= 3n always; TAG/n flat; fitted exponent ≈ 1 (even on barbell)")
	return tbl.Write(w)
}

// E5TAGIS regenerates Table 1 row 5 / Theorems 6-8: on graphs with large
// weak conductance (barbell, clique chains), the IS protocol builds a
// spanning tree in polylog rounds and TAG+IS disseminates k messages in
// Θ(k) rounds once k dominates the polylog terms.
func E5TAGIS(w io.Writer, opt Options) error {
	n := opt.pick(32, 128)
	graphs := []*graph.Graph{
		graph.Barbell(n),
		graph.CliqueChain(4, n/4),
	}
	tbl := NewTable("graph", "t(IS) rounds", "polylog ref log²n", "k", "TAG+IS rounds", "rounds/k")
	for _, g := range graphs {
		ires, _, err := harness.ISpread(g, core.Synchronous, ispread.TreeMode, core.SplitSeed(opt.Seed, 55))
		if err != nil {
			return fmt.Errorf("E5 IS %s: %w", g.Name(), err)
		}
		ref := log2(g.N()) * log2(g.N())
		for _, k := range []int{g.N() / 2, g.N(), 2 * g.N()} {
			mean, err := meanRounds(opt, g, k, harness.ProtocolTAGIS, nil)
			if err != nil {
				return fmt.Errorf("E5 TAG+IS %s k=%d: %w", g.Name(), k, err)
			}
			tbl.AddRow(g.Name(), ires.Rounds, ref, k, mean, mean/float64(k))
		}
	}
	fmt.Fprintln(w, "E5 — Theorems 6-8 / Table 1 row 5: TAG+IS = Θ(k) on large weak conductance")
	fmt.Fprintln(w, "    expected: t(IS) ~ polylog(n) << n; rounds/k approaches a constant as k grows")
	if err := tbl.Write(w); err != nil {
		return err
	}
	// Theorem 8 (asynchronous model): TAG+IS = O(k + lmax) async rounds.
	async := NewTable("graph", "k", "async rounds", "rounds/k")
	for _, g := range graphs {
		k := 2 * g.N()
		mean, err := meanRounds(opt, g, k, harness.ProtocolTAGIS,
			func(s *harness.Spec) { s.Model = core.Asynchronous })
		if err != nil {
			return fmt.Errorf("E5 async %s: %w", g.Name(), err)
		}
		async.AddRow(g.Name(), k, mean, mean/float64(k))
	}
	fmt.Fprintln(w, "    Theorem 8 (asynchronous): O(k + lmax) — rounds/k stays a small constant:")
	if err := async.Write(w); err != nil {
		return err
	}
	// The premise, measured: Φ_c over the barbell's two cliques and the
	// chain's four.
	weak := NewTable("graph", "c", "weak conductance lower bound")
	for i, c := range []int{2, 4} {
		phi, _ := conductance.WeakLowerBound(graphs[i], c)
		weak.AddRow(graphs[i].Name(), c, phi)
	}
	fmt.Fprintln(w, "    weak conductance (greedy lower bound over c communities) stays Θ(1):")
	return weak.Write(w)
}

func isqrt(n int) int {
	s := int(math.Sqrt(float64(n)))
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
