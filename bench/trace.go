package main

import (
	"context"
	"encoding/json"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
	"algossip/internal/runtime"
	"algossip/internal/sim"
)

// span is one timed interval at a layer boundary. Self time of a span is
// its duration minus the part its children cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused it; -1 for a root
	Trial  int    `json:"trial"`  // spans of one trial share it
}

// tracer collects spans and per-layer sums in memory; nothing is written
// until the run ends. Safe for concurrent use (live nodes and fabric
// workers record from their own goroutines).
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	sums    map[string]float64   // busy seconds and counts, by per-layer key
	samples map[string][]float64 // per-operation samples, for medians

	trials int // trial identifiers handed out so far
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sums: map[string]float64{}, samples: map[string][]float64{}}
}

// nextTrial returns a fresh trial identifier.
func (t *tracer) nextTrial() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trials++
	return t.trials
}

// begin opens a span now and returns its index.
func (t *tracer) begin(name string, parent, trial int) int {
	return t.record(name, parent, trial, time.Now(), time.Time{})
}

// record stores a span with explicit times (zero end = still open).
func (t *tracer) record(name string, parent, trial int, start, end time.Time) int {
	s := span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), Parent: parent, Trial: trial}
	if !end.IsZero() {
		s.End = end.Sub(t.epoch).Nanoseconds()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id now and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

func (t *tracer) add(key string, v float64) {
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

func (t *tracer) sample(key string, v float64) {
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], v)
	t.mu.Unlock()
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// ------------------------------------------------------- simulator wrapper

// tracedProto decorates a uniform-AG protocol (classic or generation,
// serial or sharded) with spans: run → round[i] → wake | commit. Per-wake
// times are summed into the round's wake span, not stored one by one.
// What the engine spends outside these calls is sim.engine_self_s.
type tracedProto struct {
	inner sim.ShardedProtocol
	tr    *tracer
	trial int
	run   int // span index of "run"

	round     int // open round span, -1 in the asynchronous model
	wakeStart time.Time
	wake      time.Duration // Σ OnWake since wakeStart

	mu        sync.Mutex // guards the shard fields: WakeShard calls run concurrently
	shardMin  time.Duration
	shardMax  time.Duration
	shardSum  time.Duration
	shardN    int
	shardFrom time.Time

	wakes     int64
	wakeBusy  time.Duration // Σ busy in OnWake / WakeShard (summed over shards)
	wakeWall  time.Duration // Σ per round of the slowest shard (serial: = wakeBusy)
	commit    time.Duration // Σ EndRound / CommitRound
	other     time.Duration // Σ BeginRound
	imbalance time.Duration // Σ per round of slowest − fastest shard
}

var _ sim.ShardedProtocol = (*tracedProto)(nil)

func (p *tracedProto) Name() string { return p.inner.Name() }
func (p *tracedProto) Done() bool   { return p.inner.Done() }

func (p *tracedProto) OnWake(v core.NodeID) {
	t0 := time.Now()
	p.inner.OnWake(v)
	d := time.Since(t0)
	if p.wake == 0 {
		p.wakeStart = t0
	}
	p.wake += d
	p.wakes++
}

func (p *tracedProto) BeginRound(round int) {
	t0 := time.Now()
	p.round = p.tr.record("round", p.run, p.trial, t0, time.Time{})
	p.inner.BeginRound(round)
	p.other += time.Since(t0)
}

// flushWake closes the round's wake phase into one span under parent.
func (p *tracedProto) flushWake(parent int) {
	if p.wake == 0 {
		return
	}
	p.tr.record("wake", parent, p.trial, p.wakeStart, p.wakeStart.Add(p.wake))
	p.wakeBusy += p.wake
	p.wakeWall += p.wake
	p.wake = 0
}

func (p *tracedProto) EndRound(round int) {
	p.flushWake(p.round)
	p.commitSpan(func() { p.inner.EndRound(round) })
}

func (p *tracedProto) commitSpan(commit func()) {
	id := p.tr.begin("commit", p.round, p.trial)
	commit()
	p.commit += p.tr.end(id)
	p.tr.end(p.round)
}

func (p *tracedProto) ActiveWords() []uint64 {
	words := p.inner.ActiveWords()
	for _, w := range words {
		p.wakes += int64(bits.OnesCount64(w))
	}
	return words
}

func (p *tracedProto) WakeShard(lo, hi int) {
	t0 := time.Now()
	p.inner.WakeShard(lo, hi)
	d := time.Since(t0)
	p.mu.Lock()
	if p.shardN == 0 || d < p.shardMin {
		p.shardMin = d
	}
	if d > p.shardMax {
		p.shardMax = d
	}
	if p.shardN == 0 || t0.Before(p.shardFrom) {
		p.shardFrom = t0
	}
	p.shardSum += d
	p.shardN++
	p.mu.Unlock()
}

func (p *tracedProto) CommitRound(round int) {
	// All WakeShard calls of the round have returned.
	if p.shardN > 0 {
		p.tr.record("wake", p.round, p.trial, p.shardFrom, p.shardFrom.Add(p.shardMax))
		p.wakeBusy += p.shardSum
		p.wakeWall += p.shardMax
		p.imbalance += p.shardMax - p.shardMin
		p.shardN, p.shardSum, p.shardMax = 0, 0, 0
	}
	p.commitSpan(func() { p.inner.CommitRound(round) })
}

// tracedSim is what one traced simulator trial returns.
type tracedSim struct {
	res     sim.Result
	traffic gossip.Traffic
	classic *algebraic.Protocol // for decoding; nil for generation runs
}

// simTrial runs one uniform-AG trial with the wrapper on. The protocol is
// built the way harness.Execute (and algossip.Disseminate) builds it —
// protocol RNG from seed stream 1, engine from 2, payloads from 11 unless
// msgs is given, sharded per-node streams from 12 — so its Rounds must
// equal the untraced run's for the same seed.
func (t *tracer) simTrial(trial int, spec harness.GossipSpec, seed uint64, msgs []rlnc.Message) (tracedSim, error) {
	spec = spec.Normalize()
	g := spec.Graph
	root := t.begin("trial", -1, trial)
	construct := t.begin("construct", root, trial)

	rcfg := spec.RLNCConfig()
	if msgs != nil {
		rcfg = rlnc.Config{Field: rcfg.Field, K: spec.K, PayloadLen: len(msgs[0].Payload)}
	} else if spec.PayloadLen > 0 {
		msgs = algebraic.RandomMessages(rcfg, core.NewRand(core.SplitSeed(seed, 11)))
	}
	var out tracedSim
	var inner sim.ShardedProtocol
	var traffic func() gossip.Traffic
	sel := sim.NewUniform(g)
	rng := core.NewRand(core.SplitSeed(seed, 1))
	if spec.GenSize > 0 {
		cfg := rlnc.GenConfig{Inner: rcfg, K: spec.K, GenSize: spec.GenSize}
		cfg.Inner.K = 0
		p, err := algebraic.NewGen(g, spec.Model, sel, cfg, rng)
		if err != nil {
			return out, err
		}
		if err := p.SeedAll(spec.Assign(), msgs); err != nil {
			return out, err
		}
		if spec.Shards > 0 {
			if err := p.EnableSharded(core.SplitSeed(seed, 12), true); err != nil {
				return out, err
			}
		}
		inner, traffic = p, p.Traffic
	} else {
		p, err := algebraic.New(g, spec.Model, sel,
			algebraic.Config{RLNC: rcfg, Action: spec.Action, LossRate: spec.LossRate}, rng)
		if err != nil {
			return out, err
		}
		if err := p.SeedAll(spec.Assign(), msgs); err != nil {
			return out, err
		}
		if spec.Shards > 0 {
			if err := p.EnableSharded(core.SplitSeed(seed, 12), true); err != nil {
				return out, err
			}
		}
		inner, traffic, out.classic = p, p.Traffic, p
	}
	t.add("algebraic.construct_s", t.end(construct).Seconds())

	wp := &tracedProto{inner: inner, tr: t, trial: trial, round: -1}
	wp.run = t.begin("run", root, trial)
	opts := []sim.Option{sim.WithMaxRounds(spec.MaxRounds)}
	if spec.Shards > 0 {
		opts = append(opts, sim.WithShards(spec.Shards))
	}
	res, err := sim.New(g, spec.Model, wp, core.SplitSeed(seed, 2), opts...).Run()
	wp.flushWake(wp.run) // asynchronous model: one wake span for the whole run
	runWall := t.end(wp.run)
	t.end(root)
	if err != nil {
		return out, err
	}
	out.res, out.traffic = res, traffic()
	t.add("algebraic.wake_s", wp.wakeBusy.Seconds())
	t.add("algebraic.commit_s", wp.commit.Seconds())
	t.add("sim.engine_self_s", (runWall - wp.wakeWall - wp.commit - wp.other).Seconds())
	if spec.Shards > 0 {
		t.add("sim.shard_imbalance_s", wp.imbalance.Seconds())
	}
	t.add("sim.wakes", float64(wp.wakes))
	t.add("sim.run_s", runWall.Seconds())
	t.addSim(res.Rounds, out.traffic)
	return out, nil
}

// addSim accumulates a trial's simulated counts.
func (t *tracer) addSim(rounds int, tr gossip.Traffic) {
	t.add("sim.rounds", float64(rounds))
	t.add("algebraic.sent", float64(tr.Sent))
	t.add("algebraic.helpful", float64(tr.Helpful))
	t.add("algebraic.useless", float64(tr.Useless))
}

// ------------------------------------------------------- transport wrapper

// tracedTransport times every Send of a live cluster: convergence → send.
type tracedTransport struct {
	runtime.Transport
	tr    *tracer
	conv  int // span index of the convergence
	trial int
}

func (t *tracedTransport) Send(ctx context.Context, to core.NodeID, env runtime.Envelope) error {
	t0 := time.Now()
	err := t.Transport.Send(ctx, to, env)
	t1 := time.Now()
	t.tr.record("send", t.conv, t.trial, t0, t1)
	t.tr.add("runtime.send_s", t1.Sub(t0).Seconds())
	return err
}

// ------------------------------------------------------ HTTP client wrapper

// timingRT is the RoundTripper under one fabric worker's HTTP client:
// fabric rep → lease | execute | upload. A worker issues its lease and
// results requests one after the other, so execute is the gap between a
// lease response and the next results request.
type timingRT struct {
	base  http.RoundTripper
	tr    *tracer
	rep   int // span index of the fabric rep
	trial int

	mu       sync.Mutex
	leaseEnd time.Time // end of the last /lease round trip, zero once consumed
}

func newTimingClient(tr *tracer, rep, trial int) *http.Client {
	return &http.Client{Transport: &timingRT{base: http.DefaultTransport, tr: tr, rep: rep, trial: trial}}
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := rt.base.RoundTrip(req)
	t1 := time.Now()
	d := t1.Sub(t0)
	rt.tr.add("fabric.requests", 1)
	rt.tr.add("fabric.http_s", d.Seconds())
	if req.ContentLength > 0 {
		rt.tr.add("fabric.bytes_up", float64(req.ContentLength))
	}
	switch req.URL.Path {
	case "/lease":
		rt.tr.record("lease", rt.rep, rt.trial, t0, t1)
		rt.tr.sample("fabric.lease_ms", ms(d))
		rt.mu.Lock()
		rt.leaseEnd = t1
		rt.mu.Unlock()
	case "/results":
		rt.mu.Lock()
		from := rt.leaseEnd
		rt.leaseEnd = time.Time{}
		rt.mu.Unlock()
		if !from.IsZero() {
			rt.tr.record("execute", rt.rep, rt.trial, from, t0)
		}
		rt.tr.record("upload", rt.rep, rt.trial, t0, t1)
		rt.tr.sample("fabric.results_ms", ms(d))
	}
	return resp, err
}
