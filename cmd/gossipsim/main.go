// Command gossipsim runs one gossip simulation and prints its stopping
// time, the analytic bound it is compared against, and per-trial detail.
// Trials are independent and fan out over the internal/harness worker
// pool (-parallel); the printed report is identical for any worker count.
//
// Usage:
//
//	gossipsim -graph barbell -n 64 -k 64 -protocol tag -model sync -trials 5
//
// Graphs: line, ring, grid, torus, complete, star, bintree, barbell,
// lollipop, cliquechain, hypercube, er, randreg.
// Protocols: ag (uniform algebraic gossip), tag (TAG+B_RR), tag-uniform,
// tag-is, uncoded.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	spec := harness.Spec{
		Name: "gossipsim", Graph: "grid", Protocol: harness.ProtocolUniformAG,
		Model: core.Synchronous, Q: 2, Action: core.Exchange, Trials: 3, Seed: 1,
	}
	spec.BindFlags(fs)
	var (
		n          = fs.Int("n", 64, "number of nodes (approximate for grid/bintree)")
		k          = fs.Int("k", 0, "number of messages (default n/2)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent trials (0 = all cores, 1 = sequential)")
		detail     = fs.Bool("detail", false, "print traffic counters and completion quantiles")
		traceCSV   = fs.String("tracecsv", "", "write per-node completion rounds to this CSV file")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := harness.Profiles{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceFile,
	}.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	g, err := graph.FromName(spec.Graph, *n, core.NewRand(core.SplitSeed(spec.Seed, 999)))
	if err != nil {
		return err
	}
	if *k == 0 {
		*k = g.N() / 2
	}

	// All writes go through the fail-fast writer: a broken pipe or full
	// disk surfaces as a non-zero exit instead of being dropped.
	w := harness.NewFailFastWriter(stdout)

	diam := g.Diameter()
	delta := g.MaxDegree()
	fmt.Fprintf(w, "graph=%s n=%d m=%d D=%d Δ=%d | protocol=%v model=%v k=%d q=%d action=%v",
		g.Name(), g.N(), g.M(), diam, delta, spec.Protocol, spec.Model, *k, spec.Q, spec.Action)
	if !spec.Dynamics.IsStatic() {
		fmt.Fprintf(w, " dynamics=%s", spec.Dynamics)
	}
	if spec.Adversary != nil {
		fmt.Fprintf(w, " adversary=%s", spec.Adversary)
	}
	if spec.Classes != nil {
		fmt.Fprintf(w, " classes=%s", spec.Classes)
	}
	if spec.GenSize > 0 {
		fmt.Fprintf(w, " generations=%d", spec.GenSize)
	}
	fmt.Fprintln(w)

	// One (graph, k) cell, with the historical per-trial seed layout
	// SplitSeed(seed, trial).
	spec.Graphs, spec.Ks = []*graph.Graph{g}, []int{*k}
	rootSeed := spec.Seed
	spec.TrialSeed = func(size, trial int) uint64 {
		return core.SplitSeed(rootSeed, uint64(trial))
	}
	rs, err := harness.Runner{Parallel: *parallel}.Run(&spec)
	if err != nil {
		return err
	}

	var rounds []float64
	for i, t := range rs.Trials {
		o := rs.Outcomes[i]
		fmt.Fprintf(w, "  trial %d: %d rounds\n", t.Num, o.Result.Rounds)
		if *detail {
			done := make([]float64, 0, len(o.NodeDoneRounds))
			for _, r := range o.NodeDoneRounds {
				done = append(done, float64(r))
			}
			fmt.Fprintf(w, "    traffic: %s | message size %d bits\n", o.Traffic, o.MessageBits)
			fmt.Fprintf(w, "    node completion: %s\n", stats.Summarize(done))
			if o.TreeRounds >= 0 {
				fmt.Fprintf(w, "    spanning tree complete at round %d\n", o.TreeRounds)
			}
		}
		if *traceCSV != "" && t.Num == 0 {
			if err := writeTraceCSV(*traceCSV, o.NodeDoneRounds); err != nil {
				return err
			}
			fmt.Fprintf(w, "    wrote per-node completion rounds to %s\n", *traceCSV)
		}
		rounds = append(rounds, float64(o.Result.Rounds))
	}
	s := stats.Summarize(rounds)
	fmt.Fprintf(w, "stopping time: %s\n", s)
	bound := algebraic.Theorem1Bound(g.N(), *k, diam, delta)
	fmt.Fprintf(w, "Theorem 1 reference (k+log n+D)·Δ = %.0f  (measured mean / bound = %.2f)\n",
		bound, s.Mean/bound)
	// Timing footer goes to stderr so the stdout report stays a pure
	// function of the flags and seed.
	fmt.Fprintf(os.Stderr, "gossipsim: %d trials in %v, %.1f trials/sec [gf tier %s]\n",
		rs.Executed, rs.Elapsed.Round(time.Millisecond), rs.TrialsPerSec(), gf.TierInfo())
	return w.Err()
}

// writeTraceCSV dumps per-node completion rounds as "node,round" rows.
func writeTraceCSV(path string, doneRounds []int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"node", "round"}); err != nil {
		return err
	}
	for v, r := range doneRounds {
		if err := w.Write([]string{strconv.Itoa(v), strconv.Itoa(r)}); err != nil {
			return err
		}
	}
	return w.Error()
}
