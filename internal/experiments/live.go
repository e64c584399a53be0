package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"algossip/internal/core"
	"algossip/internal/daemon"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/livectl"
	"algossip/internal/stats"
)

// e17Params are the shared knobs of one live-vs-sim comparison.
type e17Params struct {
	procs    int
	n        int
	k        int
	loss     float64
	interval time.Duration
	simRuns  int
	liveRuns int
}

func e17ParamsFor(quick bool) e17Params {
	if quick {
		// Three deployments, like the full gate: one run's live seed fixes
		// every partner choice, so a single run measures one seed's
		// trajectory under loss, not the distribution the gate is about,
		// and flaked past 3σ in about one run in seven.
		return e17Params{procs: 6, n: 12, k: 4, loss: 0.1, interval: 50 * time.Millisecond, simRuns: 80, liveRuns: 3}
	}
	// The tick interval must dwarf loopback delivery latency plus
	// scheduler jitter with 48 processes sharing a small CI machine:
	// a packet that misses its target's next tick inflates the measured
	// stopping tick and would read as protocol drift.
	return e17Params{procs: 48, n: 48, k: 8, loss: 0.1, interval: 100 * time.Millisecond, simRuns: 100, liveRuns: 3}
}

// e17Predict runs the simulator over the identical spec (same ring, k,
// field, loss rate, round-robin seeding, synchronous EXCHANGE) and
// summarizes the stopping-time distribution.
func e17Predict(p e17Params, seed uint64, parallel int) (stats.Summary, *graph.Graph, error) {
	g, err := graph.FromName("ring", p.n, core.NewRand(core.SplitSeed(seed, 999)))
	if err != nil {
		return stats.Summary{}, nil, err
	}
	spec := harness.Spec{
		Name:     fmt.Sprintf("E17-n%d", p.n),
		Graphs:   []*graph.Graph{g},
		Ks:       []int{p.k},
		Q:        256, // the live runtime's default field
		LossRate: p.loss,
		Trials:   p.simRuns,
		Seed:     seed,
		Lean:     true,
	}
	rs, err := harness.Runner{Parallel: parallel}.Run(&spec)
	if err != nil {
		return stats.Summary{}, nil, err
	}
	return stats.Summarize(rs.CellRounds(0)), g, nil
}

// e17Live deploys the multi-process cluster and returns its stopping
// tick. Daemon stderr is buffered and surfaced only on failure.
func e17Live(ctx context.Context, bin string, p e17Params, seed uint64) (int, error) {
	var errBuf bytes.Buffer
	c, err := livectl.Launch(ctx, livectl.Options{
		Options: daemon.Options{
			GraphName: "ring",
			GraphN:    p.n,
			GraphSeed: core.SplitSeed(seed, 999),
			K:         p.k,
			Q:         256,
			Interval:  p.interval,
			Seed:      seed,
			LossRate:  p.loss,
		},
		Bin:    bin,
		Procs:  p.procs,
		Stderr: &errBuf,
	})
	if err != nil {
		return 0, fmt.Errorf("launch: %w\n%s", err, errBuf.String())
	}
	defer c.Stop()
	fail := func(stage string, err error) (int, error) {
		return 0, fmt.Errorf("%s: %w\n%s", stage, err, errBuf.String())
	}
	if err := c.SeedRoundRobin(ctx, nil); err != nil {
		return fail("seed", err)
	}
	if err := c.Start(ctx); err != nil {
		return fail("start", err)
	}
	conv, err := c.WaitConverged(ctx)
	if err != nil {
		return fail("converge", err)
	}
	if err := c.Drain(ctx); err != nil {
		return fail("drain", err)
	}
	return conv.Tick, nil
}

// E17LiveCluster is the network-runtime conformance experiment: a real
// multi-process gossipd deployment (one OS process per node slice, TCP
// over loopback, injected packet loss) must stop within 3σ of the
// simulator's prediction for the identical spec. The live runtime's
// staged-ingest tick loop is what makes the comparison meaningful — one
// tick approximates one synchronous round — so a drift here means the
// deployment layer changed the protocol, not just its clothes. Quick mode
// runs a 6-process/12-node ring, full mode a 48-process/48-node ring; both
// average the live measurement over 3 deployments.
func E17LiveCluster(w io.Writer, opt Options) error {
	p := e17ParamsFor(opt.Quick)
	if opt.Trials > 0 {
		p.simRuns = opt.Trials
	}
	sum, g, err := e17Predict(p, opt.Seed, opt.Parallel)
	if err != nil {
		return fmt.Errorf("E17 predict: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	dir, err := os.MkdirTemp("", "e17-*")
	if err != nil {
		return fmt.Errorf("E17: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	bin, err := livectl.BuildGossipd(ctx, dir)
	if err != nil {
		return fmt.Errorf("E17: %w", err)
	}

	liveSum := 0.0
	ticks := make([]int, 0, p.liveRuns)
	for l := 0; l < p.liveRuns; l++ {
		tick, err := e17Live(ctx, bin, p, core.SplitSeed(opt.Seed, uint64(500+l)))
		if err != nil {
			return fmt.Errorf("E17 live run %d: %w", l, err)
		}
		ticks = append(ticks, tick)
		liveSum += float64(tick)
	}
	live := liveSum / float64(p.liveRuns)

	sigma := sum.StdDev
	if sigma < 1 {
		sigma = 1 // degenerate distributions still get a one-round gate
	}
	dev := math.Abs(live-sum.Mean) / sigma
	verdict := "ok"
	if dev > 3 {
		verdict = "VIOLATION"
	}

	fmt.Fprintln(w, "E17 — network runtime conformance: multi-process gossipd cluster (TCP loopback, injected loss) vs simulator prediction")
	fmt.Fprintf(w, "    gate: |live stopping tick - sim mean| <= 3σ over %d sim trials; live ticks: %v\n", p.simRuns, ticks)
	tbl := NewTable("graph", "n", "procs", "k", "loss", "sim mean", "sim sd", "live ticks", "|dev|/sd", "gate")
	tbl.AddRow(g.Name(), p.n, p.procs, p.k, p.loss, sum.Mean, sum.StdDev, live, dev, verdict)
	return tbl.Write(w)
}
