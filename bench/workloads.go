package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"algossip"
	"algossip/internal/core"
	"algossip/internal/fabric"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
	"algossip/internal/rlnc"
	"algossip/internal/runtime"
)

// env is what one run of one workload is given.
type env struct {
	p       int     // workers: pool Parallel, Shards and fabric workers all use it
	seed    uint64  // every input derives from it
	seconds float64 // host-time budget of the measurement loop
	scale   float64 // shrinks trial counts and the budget (smoke test); 1 in real runs
	out     string  // where traces go (bench/out under the checkout root)
	dir     string  // scratch directory under out, removed when the run ends
	ref     *refLog // the run's reference-load log, for reps with seams; nil when none is kept
	// durable makes fabric reps keep a checkpoint file, one fsync per
	// accepted trial. Only the per-layer run sets it: fsync latency on a
	// shared disk has episodes of 5-40x (a rep of 1.5 s took 12 s) that
	// no reference kernel corrects, so the end-to-end run leaves the
	// checkpoint out and the durable append is measured as a layer.
	durable bool
	graphs  map[string]*graph.Graph
}

// scaled shrinks a trial count by env.scale, never below 1.
func (e *env) scaled(n int) int {
	if v := int(float64(n) * e.scale); v > 1 {
		return v
	}
	return 1
}

// repSeed derives repetition i's seed from the run seed.
func (e *env) repSeed(i int) uint64 { return core.SplitSeed(e.seed, 7000+uint64(i)) }

// cellStat is the simulated outcome of one cell of one rep: exact for a
// seed, so golden.json pins it and a simulator-speed change must leave
// it identical.
type cellStat struct {
	Cell    string `json:"cell"`
	Trials  int    `json:"trials"`
	Rounds  int64  `json:"rounds"`
	Sent    int    `json:"sent,omitempty"`
	Helpful int    `json:"helpful,omitempty"`
	Useless int    `json:"useless,omitempty"`
	Digest  string `json:"sha256,omitempty"`
}

func (c *cellStat) addTraffic(t gossip.Traffic) {
	c.Sent += t.Sent
	c.Helpful += t.Helpful
	c.Useless += t.Useless
}

// outcome is what one timed repetition produced.
type outcome struct {
	trials int
	failed int   // trials whose output was wrong (errors abort the run instead)
	rounds int64 // Σ stopping time: simulated rounds, or ticks for the live cluster
	bytes  int64 // message bytes decoded at all nodes (n·k·row bytes per trial)
	cells  []cellStat
	// begin/end override the loop's own snapshots when the timed region is
	// narrower than the run call (fabric: coordinator start → last result).
	begin, end *snapshot
	// timed overrides both when the rep timed several regions itself (the
	// sweep: one per cell, the reference load read at the seams).
	timed *cost
	// base and traced are set by traced runs only: the wall time of the
	// traced region, and of the same work untraced when the rep's own
	// untraced run is not comparable (the sweep's pool vs serial tracing).
	base, traced time.Duration
	why          string // first verification failure, for the report
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.why == "" {
		o.why = fmt.Sprintf(format, args...)
	}
}

// rep is one prepared repetition: inputs generated, system constructed,
// nothing timed yet.
type rep interface {
	run() (outcome, error)
	close()
}

// workload is one of the benchmark's named input sets.
type workload struct {
	name string
	// pinned reps always run, whatever the budget; rounds_mean and the
	// golden pins are taken over exactly these, so they are exact for a
	// seed while the timed metrics use every rep the budget allowed.
	pinned int
	// simulated says rounds are simulated time (exact), not host ticks.
	simulated bool
	// issue is the share of the workload's host time that is bound by
	// instruction issue, the rest being bound by cache, memory and kernel
	// entry: the weights of the reference load's two components in the
	// workload's host factor (hostFactor). Chosen from two campaigns of
	// interleaved runs; README.md has the table.
	issue   float64
	prepare func(e *env, i int) (rep, error)
	// traced runs rep i with the wrappers on and returns its outcome.
	traced func(e *env, i int, tr *tracer) (outcome, error)
	// rlncCfg is the codec configuration the rlnc probes use for this
	// workload.
	rlncCfg func() rlnc.Config
}

func workloads() []*workload {
	return []*workload{sweepRank(), payloadGF256(), scaleSharded(), liveTCP(), fabricSweep()}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// graphSeed fixes every workload's topology: it is part of the workload,
// not of the run. The run's seed varies the trials and the messages. A
// seeded topology would make set-up time a lottery — randreg is built by
// rejection sampling, ≈43 attempts on average with a geometric spread —
// and setup_s must compare across seeds.
const graphSeed = 1

// graph returns the workload's topology for rep i. Rep 0 — the set-up
// that setup_s times — builds it; later reps reuse it (graphs are
// immutable).
func (e *env) graph(i int, family string, n int) (*graph.Graph, error) {
	key := fmt.Sprintf("%s-%d", family, n)
	if g := e.graphs[key]; g != nil && i > 0 {
		return g, nil
	}
	// Stream 999 is the harness's graph-construction stream.
	g, err := graph.FromName(family, n, core.NewRand(core.SplitSeed(graphSeed, 999)))
	if err != nil {
		return nil, err
	}
	if e.graphs == nil {
		e.graphs = map[string]*graph.Graph{}
	}
	e.graphs[key] = g
	return g, nil
}

// ---------------------------------------------------------------- sweep_rank

// sweepCell is one rank-only cell of the sweep_rank workload.
type sweepCell struct {
	name   string
	graph  string
	n, k   int
	q      int
	model  core.TimeModel
	proto  harness.Protocol
	trials int // per rep
}

// sweepCells is the rank-only grid: the traffic of every paper table.
// Trial counts per rep keep the issue's 48:16:32:32:16:16 proportions at
// one eighth, so a rep is ≈2 s and a run holds ≈9 of them.
var sweepCells = []sweepCell{
	{"randreg-gf2", "randreg", 1024, 128, 2, core.Synchronous, harness.ProtocolUniformAG, 6},
	{"randreg-gf256", "randreg", 1024, 128, 256, core.Synchronous, harness.ProtocolUniformAG, 2},
	{"grid-gf2", "grid", 1024, 128, 2, core.Synchronous, harness.ProtocolUniformAG, 4},
	{"barbell-gf2", "barbell", 128, 64, 2, core.Synchronous, harness.ProtocolUniformAG, 4},
	{"ring-async-gf2", "ring", 256, 128, 2, core.Asynchronous, harness.ProtocolUniformAG, 2},
	{"barbell-tag-brr", "barbell", 256, 256, 2, core.Synchronous, harness.ProtocolTAGRR, 2},
}

// rowBytes is the size of what one message resolves to at a node: its
// payload, or for a rank-only run the k-symbol coefficient vector.
func rowBytes(k, q, payload int) int64 {
	if payload > 0 {
		return int64(payload)
	}
	bits := 1
	for 1<<bits < q {
		bits++
	}
	return int64((k*bits + 7) / 8)
}

func (c sweepCell) spec(e *env, g *graph.Graph, seed uint64) *harness.Spec {
	return &harness.Spec{
		Name: c.name, Graphs: []*graph.Graph{g}, Ks: []int{c.k},
		Protocol: c.proto, Model: c.model, Q: c.q, Lean: true,
		Trials: e.scaled(c.trials), Seed: seed,
	}
}

type sweepRep struct {
	e      *env
	seed   uint64
	graphs []*graph.Graph
}

func prepareSweep(e *env, i int) (*sweepRep, error) {
	r := &sweepRep{e: e, seed: e.repSeed(i)}
	for _, c := range sweepCells {
		g, err := e.graph(i, c.graph, c.n)
		if err != nil {
			return nil, err
		}
		r.graphs = append(r.graphs, g)
	}
	return r, nil
}

func (r *sweepRep) run() (outcome, error) {
	var out outcome
	// A rep is ≈2.5 s and the host's speed changes within seconds, so the
	// cells are timed one by one and the reference load is read at the
	// seams, outside the timed regions.
	out.timed = new(cost)
	for ci, c := range sweepCells {
		if ci > 0 {
			r.e.ref.read()
		}
		begin := beginSnapshot()
		rs, err := harness.Runner{Parallel: r.e.p}.Run(c.spec(r.e, r.graphs[ci], r.seed))
		end := endSnapshot()
		if err != nil {
			return out, fmt.Errorf("cell %s: %w", c.name, err)
		}
		out.timed.add(begin.until(end))
		out.addResultSet(c.name, rs, rowBytes(c.k, c.q, 0))
	}
	return out, nil
}

func (r *sweepRep) close() {}

// addResultSet folds one harness run into the outcome as one cell.
func (o *outcome) addResultSet(name string, rs *harness.ResultSet, row int64) {
	cs := cellStat{Cell: name, Trials: len(rs.Trials)}
	for i, oc := range rs.Outcomes {
		cs.Rounds += int64(oc.Result.Rounds)
		cs.addTraffic(oc.Traffic)
		t := rs.Trials[i]
		o.bytes += int64(t.Graph.N()) * int64(t.K) * row
		if !oc.Result.Completed {
			o.fail("cell %s trial %d did not complete", name, t.Num)
		}
	}
	o.trials += cs.Trials
	o.rounds += cs.Rounds
	o.cells = append(o.cells, cs)
}

func sweepRank() *workload {
	return &workload{
		name:   "sweep_rank",
		pinned: 3, simulated: true, issue: 0.25,
		prepare: func(e *env, i int) (rep, error) { return prepareSweep(e, i) },
		traced:  traceSweep,
		rlncCfg: func() rlnc.Config { return algossip.RLNCRankOnlyConfig(128, 2) },
	}
}

// ------------------------------------------------------------- payload_gf256

const (
	payloadN = 32
	payloadK = 128
	payloadR = 4096
)

type payloadRep struct {
	seed uint64
	g    *graph.Graph
	msgs []algossip.Message
}

func preparePayload(e *env, i int) (*payloadRep, error) {
	seed := e.repSeed(i)
	g, err := e.graph(i, "randreg", payloadN)
	if err != nil {
		return nil, err
	}
	return &payloadRep{seed: seed, g: g, msgs: algossip.RandomMessages(payloadK, payloadR, core.SplitSeed(seed, 11))}, nil
}

func (r *payloadRep) run() (outcome, error) {
	decoded, res, err := algossip.Disseminate(r.g, r.msgs, nil, r.seed)
	if err != nil {
		return outcome{}, err
	}
	return payloadOutcome(r.msgs, decoded, res.Rounds, gossip.Traffic{}), nil
}

func (r *payloadRep) close() {}

func payloadOutcome(msgs, decoded []algossip.Message, rounds int, tr gossip.Traffic) outcome {
	out := outcome{trials: 1, rounds: int64(rounds), bytes: payloadN * payloadK * payloadR}
	cs := cellStat{Cell: "randreg-gf256-payload", Trials: 1, Rounds: int64(rounds)}
	cs.addTraffic(tr)
	out.cells = []cellStat{cs}
	if !sameMessages(msgs, decoded) {
		out.fail("node 0 decoded different bytes than were sent")
	}
	return out
}

// sameMessages compares decoded messages with the originals byte for byte.
func sameMessages(want, got []rlnc.Message) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if got[i].Index != want[i].Index || !bytes.Equal(got[i].Payload, want[i].Payload) {
			return false
		}
	}
	return true
}

func payloadGF256() *workload {
	return &workload{
		name:   "payload_gf256",
		pinned: 24, simulated: true, issue: 0.25,
		prepare: func(e *env, i int) (rep, error) { return preparePayload(e, i) },
		traced:  tracePayload,
		rlncCfg: func() rlnc.Config {
			return rlnc.Config{Field: gf.MustNew(256), K: payloadK, PayloadLen: payloadR}
		},
	}
}

// ------------------------------------------------------------- scale_sharded

const (
	scaleN   = 4096
	scaleK   = 64
	scaleGen = 16
)

type scaleRep struct {
	seed uint64
	spec harness.GossipSpec
}

func scaleSpec(e *env, g *graph.Graph) harness.GossipSpec {
	return harness.GossipSpec{
		Graph: g, K: scaleK, GenSize: scaleGen, SingleSource: true,
		Shards: e.p, Q: 2, Lean: true,
	}
}

// scaleNodes is the workload's node count: scaleN, shrunk with the env's
// scale (ladder rung, smoke test) but never below 1024.
func scaleNodes(e *env) int {
	if n := int(scaleN*e.scale) &^ 63; n > 1024 {
		return n
	}
	return 1024
}

func prepareScale(e *env, i int) (*scaleRep, error) {
	seed := e.repSeed(i)
	g, err := e.graph(i, "randreg", scaleNodes(e))
	if err != nil {
		return nil, err
	}
	return &scaleRep{seed: seed, spec: scaleSpec(e, g)}, nil
}

func (r *scaleRep) run() (outcome, error) {
	oc, err := harness.Execute(r.spec, harness.ProtocolUniformAG, r.seed)
	if err != nil {
		return outcome{}, err
	}
	return scaleOutcome(r.spec.Graph.N(), oc.Result.Rounds, oc.Traffic), nil
}

func (r *scaleRep) close() {}

func scaleOutcome(n, rounds int, tr gossip.Traffic) outcome {
	cs := cellStat{Cell: "randreg-gen16-sharded", Trials: 1, Rounds: int64(rounds)}
	cs.addTraffic(tr)
	return outcome{
		trials: 1, rounds: int64(rounds), cells: []cellStat{cs},
		bytes: int64(n) * scaleK * rowBytes(scaleK, 2, 0),
	}
}

func scaleSharded() *workload {
	return &workload{
		name:   "scale_sharded",
		pinned: 8, simulated: true, issue: 0,
		prepare: func(e *env, i int) (rep, error) { return prepareScale(e, i) },
		traced:  traceScale,
		rlncCfg: func() rlnc.Config { return algossip.RLNCRankOnlyConfig(scaleGen, 2) },
	}
}

// ------------------------------------------------------------------ live_tcp

const (
	liveN        = 16
	liveK        = 64
	liveR        = 4096
	liveGen      = 16
	liveInterval = time.Millisecond
	liveTimeout  = 30 * time.Second
)

type liveRep struct {
	msgs    []rlnc.Message
	tr      runtime.Transport
	cluster *runtime.Cluster
}

// prepareLive builds the cluster for rep i over the transport wrap
// returns (identity when untraced): listeners bound, messages seeded,
// tick loops not yet started. Even reps use classic coding, odd reps
// generations of 16, so both runtime codecs are exercised.
func prepareLive(e *env, i int, wrap func(runtime.Transport) runtime.Transport) (*liveRep, error) {
	seed := e.repSeed(i)
	g, err := e.graph(i, "randreg", liveN)
	if err != nil {
		return nil, err
	}
	msgs := algossip.RandomMessages(liveK, liveR, core.SplitSeed(seed, 11))
	opts := []runtime.Option{runtime.WithPayload(liveR), runtime.WithInterval(liveInterval), runtime.WithSeed(seed)}
	if i%2 == 1 {
		opts = append(opts, runtime.WithGenerations(liveGen))
	}
	tr := wrap(runtime.NewTCPTransport())
	c, err := runtime.NewCluster(tr, g, liveK, opts...)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	for j, m := range msgs {
		if err := c.Seed(core.NodeID(j%liveN), m); err != nil {
			_ = tr.Close()
			return nil, err
		}
	}
	return &liveRep{msgs: msgs, tr: tr, cluster: c}, nil
}

func (r *liveRep) run() (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
	defer cancel()
	begin := beginSnapshot()
	if _, err := r.cluster.Run(ctx); err != nil {
		return outcome{}, err
	}
	end := endSnapshot()
	// Convergence is the trial; decoding every node is the check on it.
	out := outcome{trials: 1, bytes: liveN * liveK * liveR, begin: &begin, end: &end}
	ticks := 0
	for _, st := range r.cluster.Status() {
		if st.DoneTick > ticks {
			ticks = st.DoneTick
		}
	}
	out.rounds = int64(ticks)
	for v := 0; v < liveN; v++ {
		got, err := r.cluster.Decode(core.NodeID(v))
		if err != nil || !sameMessages(r.msgs, got) {
			out.fail("node %d decoded different bytes than were sent (err=%v)", v, err)
			break
		}
	}
	return out, nil
}

func (r *liveRep) close() { _ = r.tr.Close() }

func liveTCP() *workload {
	return &workload{
		name:   "live_tcp",
		pinned: 24, simulated: false, issue: 1,
		prepare: func(e *env, i int) (rep, error) {
			return prepareLive(e, i, func(t runtime.Transport) runtime.Transport { return t })
		},
		traced: traceLive,
		rlncCfg: func() rlnc.Config {
			return rlnc.Config{Field: gf.MustNew(256), K: liveK, PayloadLen: liveR}
		},
	}
}

// -------------------------------------------------------------- fabric_sweep

const (
	fabricTrials = 4000
	fabricChunk  = 32
	// 1 ms makes late-polling workers die with "connection refused"; the
	// linger is outside the timed region either way.
	fabricLinger = 500 * time.Millisecond
)

// fabricSpec is the same for every rep of a run (the fabric caches
// nothing, so identical reps do identical work and compare cleanly); the
// merged CSV of each must equal the local pool's CSV of this spec.
func fabricSpec(e *env) *harness.Spec {
	return &harness.Spec{
		Name: "bench-fabric", Graph: "ring", Sizes: []int{32}, Ks: []int{16},
		Q: 2, Lean: true, Trials: e.scaled(fabricTrials), Seed: e.seed, Fabric: "bench",
	}
}

// fabricRef is the local-pool run of the fabric spec: the reference CSV
// every rep's merged output must equal, and the base of
// fabric.overhead_frac. Computed once per run, outside setup and the
// timed region.
type fabricRef struct {
	once sync.Once
	csv  []byte
	wall time.Duration
	err  error
}

func (f *fabricRef) get(e *env) ([]byte, time.Duration, error) {
	f.once.Do(func() {
		start := time.Now()
		rs, err := harness.Runner{Parallel: e.p}.Run(fabricSpec(e))
		f.wall = time.Since(start)
		if err != nil {
			f.err = err
			return
		}
		f.csv, f.err = csvBytes(rs)
	})
	return f.csv, f.wall, f.err
}

func csvBytes(rs *harness.ResultSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := harness.WriteCSV(&buf, rs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type fabricRep struct {
	e     *env
	ref   *fabricRef
	dir   string
	store *resultstore.Store
	coord *fabric.Coordinator
	done  chan snapshot // receives the snapshot taken at Progress(done==total)
	// client, when set, makes each worker's HTTP client (traced runs).
	client func() *http.Client
}

func prepareFabric(e *env, i int, ref *fabricRef) (*fabricRep, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("fabric-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := resultstore.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		return nil, err
	}
	r := &fabricRep{e: e, ref: ref, dir: dir, store: store, done: make(chan snapshot, 1)}
	checkpoint := ""
	if e.durable {
		checkpoint = filepath.Join(dir, "ck.jsonl")
	}
	r.coord, err = fabric.NewCoordinator(fabric.CoordinatorOptions{
		Spec: fabricSpec(e), Checkpoint: checkpoint, Store: store,
		LeaseChunk: fabricChunk, Linger: fabricLinger,
		Progress: func(done, total int) {
			if done == total {
				r.done <- endSnapshot()
			}
		},
	})
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	return r, nil
}

func (r *fabricRep) run() (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	begin := beginSnapshot()
	type coordResult struct {
		rs  *harness.ResultSet
		err error
	}
	coordCh := make(chan coordResult, 1)
	go func() {
		rs, err := r.coord.Run(ctx)
		coordCh <- coordResult{rs, err}
	}()
	workerErrs := make(chan error, r.e.p)
	for w := 0; w < r.e.p; w++ {
		opts := fabric.WorkerOptions{Coordinator: r.coord.URL(), Name: fmt.Sprintf("w%d", w), Parallel: 1}
		if r.client != nil {
			opts.Client = r.client()
		}
		go func() {
			_, err := fabric.RunWorker(ctx, opts)
			workerErrs <- err
		}()
	}
	var end snapshot
	select {
	case end = <-r.done:
	case <-ctx.Done():
		return outcome{}, fmt.Errorf("fabric rep timed out: %w", ctx.Err())
	}
	// Outside the timed region: workers observe Done, the coordinator
	// lingers, ingests into the store and returns the merged set.
	for w := 0; w < r.e.p; w++ {
		if err := <-workerErrs; err != nil {
			return outcome{}, fmt.Errorf("fabric worker: %w", err)
		}
	}
	cr := <-coordCh
	if cr.err != nil {
		return outcome{}, fmt.Errorf("fabric coordinator: %w", cr.err)
	}
	merged, err := csvBytes(cr.rs)
	if err != nil {
		return outcome{}, err
	}
	want, _, err := r.ref.get(r.e)
	if err != nil {
		return outcome{}, fmt.Errorf("fabric reference run: %w", err)
	}
	out := outcome{begin: &begin, end: &end}
	out.addResultSet("ring-fabric", cr.rs, rowBytes(16, 2, 0))
	digest := sha256.Sum256(merged)
	out.cells[0].Digest = hex.EncodeToString(digest[:])
	if !bytes.Equal(merged, want) {
		out.failed = out.trials
		out.why = "merged fabric CSV differs from the local pool's CSV of the same spec"
	}
	return out, nil
}

func (r *fabricRep) close() {
	_ = r.store.Close()
	_ = os.RemoveAll(r.dir)
}

func fabricSweep() *workload {
	ref := &fabricRef{}
	return &workload{
		name:   "fabric_sweep",
		pinned: 3, simulated: true, issue: 0.25,
		prepare: func(e *env, i int) (rep, error) { return prepareFabric(e, i, ref) },
		traced:  func(e *env, i int, tr *tracer) (outcome, error) { return traceFabric(e, i, tr, ref) },
		rlncCfg: func() rlnc.Config { return algossip.RLNCRankOnlyConfig(16, 2) },
	}
}
