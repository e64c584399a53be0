package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/queueing"
	"algossip/internal/stats"
)

// E9QueueChain regenerates Figure 1 / Theorem 2: the reduction of algebraic
// gossip to queueing networks. It simulates every system in the
// stochastic-dominance chain
//
//	Q^tree ≼ Q^line ≼ Q̂^line,
//
// verifies the ordering of mean drain times, and fits the drain time of
// Q̂^line against (k + l_max)/µ (expected: linear with slope O(1)).
func E9QueueChain(w io.Writer, opt Options) error {
	trials := opt.pick(100, 400)
	mu := 1.0

	// Part 1: dominance chain on the BFS tree of a grid with scattered
	// customers (the Figure 1 pipeline: graph -> tree -> queues -> line).
	g := graph.Grid(4, opt.pick(4, 8))
	tree := g.BFSTree(0)
	customers := make([]int, g.N())
	total := 0
	for v := range customers {
		customers[v] = v % 2
		total += customers[v]
	}
	depths := tree.Depths()
	lmax := tree.Depth()
	byLevel := make([]int, lmax+1)
	for v, c := range customers {
		byLevel[depths[v]] += c
	}

	// The three systems of the dominance chain are independent simulations
	// with their own seed streams, so they fan out over the harness pool.
	chain, err := harness.ParallelMap(3, opt.Parallel, func(i int) (float64, error) {
		switch i {
		case 0:
			return queueing.MeanDrainTime(trials, core.SplitSeed(opt.Seed, 1), func(rng *rand.Rand) float64 {
				return queueing.SimulateTree(tree, customers, queueing.Exponential(mu), rng)
			}), nil
		case 1:
			return queueing.MeanDrainTime(trials, core.SplitSeed(opt.Seed, 2), func(rng *rand.Rand) float64 {
				return queueing.SimulateLine(byLevel, queueing.Exponential(mu), rng)
			}), nil
		default:
			return queueing.MeanDrainTime(trials, core.SplitSeed(opt.Seed, 3), func(rng *rand.Rand) float64 {
				return queueing.SimulateLineAllAtEnd(lmax, total, queueing.Exponential(mu), rng)
			}), nil
		}
	})
	if err != nil {
		return err
	}
	meanTree, meanLine, meanEnd := chain[0], chain[1], chain[2]

	fmt.Fprintln(w, "E9 — Figure 1 / Theorem 2: gossip-to-queueing reduction")
	fmt.Fprintf(w, "    dominance chain (means, µ=1, %s, k=%d, lmax=%d):\n", g.Name(), total, lmax)
	fmt.Fprintf(w, "    t(Q^tree)=%.1f  ≤  t(Q^line)=%.1f  ≤  t(Q̂^line)=%.1f\n", meanTree, meanLine, meanEnd)
	if !(meanTree <= meanLine*1.05 && meanLine <= meanEnd*1.05) {
		fmt.Fprintln(w, "    WARNING: dominance ordering violated beyond tolerance")
	}

	// Part 2: Theorem 2 scaling — drain of Q̂^line vs k and lmax. Each
	// (lmax, k) cell draws from its own seed stream, so the grid runs in
	// parallel and renders in declaration order.
	tbl := NewTable("lmax", "k", "drain(mean)", "(k+lmax)/µ", "ratio")
	type cell struct{ lm, k int }
	var cells []cell
	for _, lm := range []int{5, 10, 20} {
		for _, k := range []int{20, 50, 100} {
			cells = append(cells, cell{lm, k})
		}
	}
	means, err := harness.ParallelMap(len(cells), opt.Parallel, func(i int) (float64, error) {
		c := cells[i]
		return queueing.MeanDrainTime(trials, core.SplitSeed(opt.Seed, uint64(c.lm*1000+c.k)),
			func(rng *rand.Rand) float64 {
				return queueing.SimulateLineAllAtEnd(c.lm, c.k, queueing.Exponential(mu), rng)
			}), nil
	})
	if err != nil {
		return err
	}
	var xs, ys []float64
	for i, c := range cells {
		pred := float64(c.k+c.lm) / mu
		tbl.AddRow(c.lm, c.k, means[i], pred, means[i]/pred)
		xs = append(xs, pred)
		ys = append(ys, means[i])
	}
	_, slope, r2 := stats.LinearFit(xs, ys)
	fmt.Fprintf(w, "    drain vs (k+lmax)/µ: slope=%.2f R²=%.3f (Theorem 2: O((k+lmax+log n)/µ))\n", slope, r2)
	return tbl.Write(w)
}
