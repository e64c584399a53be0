// Package experiments is the registry that regenerates every table and
// figure of the paper's evaluation (see EXPERIMENTS.md, "The paper's
// artifacts"). An artifact is cells plus a renderer: each simulated cell
// is a harness.Spec literal run by harness.Runner (runCell), so it is
// launched by harness.Execute and screened by the harness refusal table
// like every sweep, and it is byte-identical for any worker count. Both
// the CLI (cmd/tables) and the benchmark suite (bench_test.go) drive the
// same harness paths, so the printed rows and the benchmark metrics agree.
package experiments

import (
	"fmt"
	"io"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/stats"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the index key used in DESIGN.md and EXPERIMENTS.md (E1..E18,
	// A1..A7).
	ID string
	// Artifact names the paper table/figure/theorem it regenerates.
	Artifact string
	// Run executes the experiment, writing its table to w.
	Run func(w io.Writer, opt Options) error
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Artifact: "Theorem 1 / Table 1 row 1", Run: E1UniformAGAnyGraph},
		{ID: "E2", Artifact: "Theorem 3 / Table 1 row 2", Run: E2ConstDegreeOptimal},
		{ID: "E3", Artifact: "Theorem 4 / Table 1 row 3", Run: E3TAGGeneral},
		{ID: "E4", Artifact: "Theorem 5 / Table 1 row 4", Run: E4TAGRoundRobin},
		{ID: "E5", Artifact: "Theorems 6-8 / Table 1 row 5", Run: E5TAGIS},
		{ID: "E6", Artifact: "Table 2 row Line", Run: E6Table2Line},
		{ID: "E7", Artifact: "Table 2 row Grid", Run: E7Table2Grid},
		{ID: "E8", Artifact: "Table 2 row Binary Tree", Run: E8Table2BinaryTree},
		{ID: "E9", Artifact: "Figure 1 / Theorem 2", Run: E9QueueChain},
		{ID: "E10", Artifact: "Section 1.1 barbell speedup", Run: E10BarbellSpeedup},
		{ID: "E11", Artifact: "Theorem 3 lower bound", Run: E11LowerBoundFloor},
		{ID: "E12", Artifact: "Deb et al. complete-graph baseline", Run: E12CompleteGraph},
		{ID: "E13", Artifact: "traffic accounting (bounded message sizes)", Run: E13Traffic},
		{ID: "E14", Artifact: "dissemination curve (per-node completion CDF)", Run: E14DisseminationCurve},
		{ID: "E15", Artifact: "dynamic topologies: stopping time vs churn / edge failures / rewiring", Run: E15DynamicTopology},
		{ID: "E16", Artifact: "web-scale O(n) conformance: generation coding + sharded engine on an expander", Run: E16WebScale},
		{ID: "E17", Artifact: "network runtime conformance: live multi-process cluster vs simulator prediction", Run: E17LiveCluster},
		{ID: "E18", Artifact: "adversarial robustness: Byzantine replay/pollution/free-riding dilation gate", Run: E18Adversarial},
		{ID: "A1", Artifact: "ablation: field size", Run: A1FieldSize},
		{ID: "A2", Artifact: "ablation: gossip action", Run: A2Action},
		{ID: "A3", Artifact: "ablation: RLNC vs uncoded", Run: A3Uncoded},
		{ID: "A4", Artifact: "ablation: rank-only equivalence", Run: A4RankOnly},
		{ID: "A5", Artifact: "ablation: sync vs async time model", Run: A5SyncVsAsync},
		{ID: "A6", Artifact: "failure injection: packet loss", Run: A6LossRobustness},
		{ID: "A7", Artifact: "ablation: RLNC generation size", Run: A7Generations},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// runCell runs one cell of an artifact — proto on g with k messages, over
// opt.trials() seeds — through the harness pool. Trial i draws stream
// 100+i of the root seed, the layout most artifacts were recorded on; set,
// when non-nil, moves whatever else the cell varies (a Spec field, or
// TrialSeed for an artifact with a stream of its own). Going through
// Spec.Expand, every cell passes the refusal screen before its first trial.
func runCell(opt Options, g *graph.Graph, k int, proto harness.Protocol, set func(*harness.Spec)) (*harness.ResultSet, error) {
	spec := harness.Spec{
		Graphs: []*graph.Graph{g}, Ks: []int{k}, Protocol: proto,
		Trials: opt.trials(), Seed: opt.Seed, TrialSeed: opt.stream(100),
		Lean: true,
	}
	if set != nil {
		set(&spec)
	}
	return harness.Runner{Parallel: opt.parallel()}.Run(&spec)
}

// meanRounds is runCell read back as the cell's mean stopping time.
func meanRounds(opt Options, g *graph.Graph, k int, proto harness.Protocol, set func(*harness.Spec)) (float64, error) {
	rs, err := runCell(opt, g, k, proto, set)
	if err != nil {
		return 0, err
	}
	return stats.Mean(rs.CellRounds(0)), nil
}

// stream is a per-trial seed layout: trial i runs on stream base+i of the
// root seed, whatever the cell.
func (o Options) stream(base uint64) func(size, trial int) uint64 {
	return func(_, trial int) uint64 { return core.SplitSeed(o.Seed, base+uint64(trial)) }
}
