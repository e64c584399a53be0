package experiments

import (
	"fmt"
	"io"

	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// table2Family describes one row of the paper's Table 2: a topology
// together with this paper's bound and Haeupler's bound, both as functions
// of (n, k).
type table2Family struct {
	name     string
	make     func(n int) *graph.Graph
	ours     func(n, k int) float64 // O((k+log n+D)Δ) specialized
	haeupler func(n, k int) float64 // O(k/γ + log²n/λ)·(1/n) specialized per the paper's table
}

func table2Families() []table2Family {
	l2 := func(n int) float64 { return log2(n) }
	return []table2Family{
		{
			name: "line",
			make: graph.Line,
			ours: func(n, k int) float64 { return float64(k + n) },
			haeupler: func(n, k int) float64 {
				return float64(k) + float64(n)*l2(n)*l2(n)
			},
		},
		{
			name: "grid",
			make: func(n int) *graph.Graph { s := isqrt(n); return graph.Grid(s, s) },
			ours: func(n, k int) float64 { return float64(k) + float64(isqrt(n)) },
			haeupler: func(n, k int) float64 {
				return float64(k) + float64(isqrt(n))*l2(n)*l2(n)
			},
		},
		{
			name: "binary-tree",
			make: graph.BinaryTree,
			ours: func(n, k int) float64 { return float64(k) + l2(n) },
			haeupler: func(n, k int) float64 {
				return float64(k) + float64(n)*l2(n)*l2(n)
			},
		},
	}
}

// runTable2 regenerates one row family of Table 2: measured uniform-AG
// stopping times across sizes, the two analytic bounds, and a fit of the
// measured data against this paper's bound expression (expected: linear,
// slope O(1), high R²).
func runTable2(w io.Writer, opt Options, fam table2Family, title string) error {
	sizes := []int{16, 32, 64}
	if !opt.Quick {
		sizes = []int{16, 32, 64, 128, 256}
	}
	tbl := NewTable("n", "k", "rounds", "ours(k+..)", "haeupler(k+..)", "γ (min cut)", "k/γ", "measured/ours")
	var xs, ys []float64
	for _, n := range sizes {
		g := fam.make(n)
		k := g.N() / 2
		mean, err := meanRounds(opt, g, k, harness.ProtocolUniformAG, nil)
		if err != nil {
			return fmt.Errorf("table2 %s n=%d: %w", fam.name, n, err)
		}
		ours := fam.ours(g.N(), k)
		// γ is the global min cut of the actual topology (Stoer-Wagner) —
		// the parameter in Haeupler's O(k/γ + log²n/λ).
		gamma := g.MinCut()
		tbl.AddRow(g.N(), k, mean, ours, fam.haeupler(g.N(), k),
			gamma, float64(k)/float64(gamma), mean/ours)
		xs = append(xs, ours)
		ys = append(ys, mean)
	}
	_, slope, r2 := stats.LinearFit(xs, ys)
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "    measured vs our bound: slope=%.2f R²=%.3f (expected: linear, R² near 1)\n", slope, r2)
	return tbl.Write(w)
}

// E6Table2Line regenerates Table 2 row "Line": our bound O(k+n) vs
// Haeupler's O(k + n log²n).
func E6Table2Line(w io.Writer, opt Options) error {
	return runTable2(w, opt, table2Families()[0],
		"E6 — Table 2 row Line: uniform AG, ours O(k+n) vs Haeupler O(k+n log²n)")
}

// E7Table2Grid regenerates Table 2 row "Grid": ours O(k+√n) vs Haeupler
// O(k + √n log²n).
func E7Table2Grid(w io.Writer, opt Options) error {
	return runTable2(w, opt, table2Families()[1],
		"E7 — Table 2 row Grid: uniform AG, ours O(k+√n) vs Haeupler O(k+√n log²n)")
}

// E8Table2BinaryTree regenerates Table 2 row "Binary Tree": ours
// O(k + log n) vs Haeupler O(k + n log²n) — the Ω(n log n / k) improvement.
func E8Table2BinaryTree(w io.Writer, opt Options) error {
	return runTable2(w, opt, table2Families()[2],
		"E8 — Table 2 row Binary Tree: uniform AG, ours O(k+log n) vs Haeupler O(k+n log²n)")
}
