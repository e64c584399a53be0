package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"algossip/internal/harness"
	rt "algossip/internal/runtime"
)

// The traced functions below run rep i of their workload with the
// wrappers on. Each sets out.traced to the wall time of the region that
// corresponds to the untraced rep's timed region, so the two compare.

// traceSweep traces the sweep cells trial by trial: every trial is run
// untraced through Spec.ExecuteTrial (the serial baseline) and then with
// the wrapper; the two Rounds must agree. The TAG cell is traced at trial
// granularity only, through ExecuteTrial.
func traceSweep(e *env, i int, tr *tracer) (outcome, error) {
	r, err := prepareSweep(e, i)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	for ci, c := range sweepCells {
		spec := c.spec(e, r.graphs[ci], r.seed)
		_, trials, err := spec.Expand()
		if err != nil {
			return out, err
		}
		cs := cellStat{Cell: c.name, Trials: len(trials)}
		for _, t := range trials {
			t0 := time.Now()
			want, err := spec.ExecuteTrial(t)
			out.base += time.Since(t0)
			if err != nil {
				return out, err
			}
			id := tr.nextTrial()
			t1 := time.Now()
			rounds, traffic := 0, want.Traffic
			if c.proto == harness.ProtocolUniformAG {
				ts, err := tr.simTrial(id, harness.GossipSpec{Graph: t.Graph, Model: c.model, K: t.K, Q: c.q, Lean: true}, t.Seed, nil)
				if err != nil {
					return out, err
				}
				rounds, traffic = ts.res.Rounds, ts.traffic
			} else {
				sp := tr.begin("trial", -1, id)
				oc, err := spec.ExecuteTrial(t)
				tr.end(sp)
				if err != nil {
					return out, err
				}
				rounds, traffic = oc.Result.Rounds, oc.Traffic
				tr.addSim(rounds, traffic)
			}
			out.traced += time.Since(t1)
			if rounds != want.Result.Rounds || traffic != want.Traffic {
				out.fail("cell %s trial %d: traced %d rounds %v, untraced %d rounds %v",
					c.name, t.Num, rounds, traffic, want.Result.Rounds, want.Traffic)
			}
			cs.Rounds += int64(rounds)
			cs.addTraffic(traffic)
			out.bytes += int64(t.Graph.N()) * int64(t.K) * rowBytes(c.k, c.q, 0)
		}
		out.trials += cs.Trials
		out.rounds += cs.Rounds
		out.cells = append(out.cells, cs)
	}
	return out, nil
}

func tracePayload(e *env, i int, tr *tracer) (outcome, error) {
	r, err := preparePayload(e, i)
	if err != nil {
		return outcome{}, err
	}
	t0 := time.Now()
	ts, err := tr.simTrial(tr.nextTrial(), harness.GossipSpec{Graph: r.g, K: payloadK, Q: 256}, r.seed, r.msgs)
	if err != nil {
		return outcome{}, err
	}
	decoded, err := ts.classic.Node(0).Decode()
	if err != nil {
		return outcome{}, err
	}
	out := payloadOutcome(r.msgs, decoded, ts.res.Rounds, ts.traffic)
	out.traced = time.Since(t0)
	return out, nil
}

func traceScale(e *env, i int, tr *tracer) (outcome, error) {
	r, err := prepareScale(e, i)
	if err != nil {
		return outcome{}, err
	}
	t0 := time.Now()
	ts, err := tr.simTrial(tr.nextTrial(), r.spec, r.seed, nil)
	if err != nil {
		return outcome{}, err
	}
	out := scaleOutcome(r.spec.Graph.N(), ts.res.Rounds, ts.traffic)
	out.traced = time.Since(t0)
	return out, nil
}

func traceLive(e *env, i int, tr *tracer) (outcome, error) {
	var tt *tracedTransport
	id := tr.nextTrial()
	r, err := prepareLive(e, i, func(t rt.Transport) rt.Transport {
		tt = &tracedTransport{Transport: t, tr: tr, trial: id}
		return tt
	})
	if err != nil {
		return outcome{}, err
	}
	defer r.close()
	tt.conv = tr.begin("convergence", -1, id)
	out, err := r.run()
	tr.end(tt.conv)
	if err != nil {
		return out, err
	}
	c := out.begin.until(*out.end)
	out.traced = c.wall
	stats := r.tr.Stats().Total
	ticks := 0
	status := r.cluster.Status()
	for _, st := range status {
		ticks += st.Ticks
	}
	tr.add("runtime.frames_sent", float64(stats.Sent))
	tr.add("runtime.dropped", float64(stats.Dropped))
	tr.add("runtime.redials", float64(stats.Redials))
	tr.add("runtime.cpu_s", c.cpu.Seconds())
	tr.add("runtime.convergences", 1)
	tr.add("runtime.ticks", float64(ticks)/float64(len(status)))
	tr.add("runtime.ticks_due", c.wall.Seconds()/liveInterval.Seconds())
	return out, nil
}

func traceFabric(e *env, i int, tr *tracer, ref *fabricRef) (outcome, error) {
	r, err := prepareFabric(e, i, ref)
	if err != nil {
		return outcome{}, err
	}
	defer r.close()
	id := tr.nextTrial()
	repSpan := tr.begin("fabric rep", -1, id)
	r.client = func() *http.Client { return newTimingClient(tr, repSpan, id) }
	out, err := r.run()
	if err != nil {
		return out, err
	}
	tr.mu.Lock()
	tr.spans[repSpan].End = out.end.t.Sub(tr.epoch).Nanoseconds()
	tr.mu.Unlock()
	wall := out.begin.until(*out.end).wall
	out.traced = wall
	_, refWall, err := ref.get(e)
	if err != nil {
		return out, err
	}
	tr.add("fabric.worker_s", float64(e.p)*wall.Seconds())
	tr.add("fabric.wall_s", wall.Seconds())
	tr.add("fabric.local_s", refWall.Seconds())
	tr.add("harness.checkpoint_appends", float64(out.trials)) // one durable append per accepted trial
	return out, nil
}

// sameCells reports how the traced rep's simulated statistics differ
// from the untraced rep's ("" when they agree). Traffic is compared only
// when both runs know it.
func sameCells(untraced, traced []cellStat) string {
	if len(untraced) != len(traced) {
		return fmt.Sprintf("%d cells traced, %d untraced", len(traced), len(untraced))
	}
	for i := range traced {
		want, got := untraced[i], traced[i]
		want.Digest, got.Digest = "", ""
		if diff := pinMismatch(want, got); diff != "" {
			return "traced vs untraced: " + diff
		}
	}
	return ""
}

// runTraced is the per-layer run: a quarter of the reps, each run once
// untraced and once with the wrappers on (so trace_overhead_frac compares
// like with like and traced = untraced rounds is checked rep by rep),
// then the ladder: the rungs this workload does not climb itself, and
// the micro-probes.
func runTraced(w *workload, e *env, res *result, update bool) error {
	host := probeHost()
	tr := newTracer()
	pinned := pinnedReps(w, e) / 4
	if pinned < 1 {
		pinned = 1
	}
	// Half the budget for the two passes; the ladder takes the rest.
	budget := e.seconds / 2
	var took []float64
	calib := calibCPU()
	for i, start := 0, time.Now(); i < pinned || time.Since(start).Seconds()+median(took) <= budget; i++ {
		repStart := time.Now()
		// Which pass goes first alternates, so that drift of the host and
		// of the heap's layout falls on both sides of the overhead ratio.
		var plain, traced outcome
		var c cost
		for pass := 0; pass < 2; pass++ {
			var err error
			if (pass == 0) == (i%2 == 0) {
				var r rep
				if r, err = w.prepare(e, i); err == nil {
					plain, c, err = timeRep(i, r)
				}
			} else {
				runtime.GC() // as timeRep does for the untraced pass
				atStackOffset(i, func() { traced, err = w.traced(e, i, tr) })
			}
			if err != nil {
				return fmt.Errorf("rep %d: %w", i, err)
			}
		}
		base := c.wall
		if traced.base > 0 {
			// The traced pass ran the same trials serially untraced, which
			// makes the rep's own untraced run their pool counterpart.
			base = traced.base
			tr.add("harness.serial_s", traced.base.Seconds())
			tr.add("harness.pool_s", c.wall.Seconds())
		}
		// Per rep, because the two passes of a rep ran back to back: host
		// drift over the run cancels in the ratio.
		tr.sample("trace.overhead", traced.traced.Seconds()/base.Seconds()-1)
		tr.add("harness.mallocs", float64(c.mallocs))
		tr.add("harness.trials", float64(plain.trials))

		res.Reps++
		res.Attempted += plain.trials + traced.trials
		res.Failed += plain.failed + traced.failed
		for _, o := range []outcome{plain, traced} {
			if o.why != "" && res.Why == "" {
				res.Why = fmt.Sprintf("rep %d: %s", i, o.why)
			}
		}
		if w.simulated {
			if diff := sameCells(plain.cells, traced.cells); diff != "" {
				res.Failed += traced.trials
				if res.Why == "" {
					res.Why = fmt.Sprintf("rep %d: %s", i, diff)
				}
			}
		}
		if i < pinnedReps(w, e) {
			res.Cells = append(res.Cells, traced.cells)
		}
		after := calibCPU()
		if noisyPair(calib, after) {
			res.Noisy = append(res.Noisy, i)
		}
		calib = after
		took = append(took, time.Since(repStart).Seconds())
	}
	res.Pinned = len(res.Cells)
	if e.seed == goldenSeed && e.scale == 1 {
		if err := checkGolden(w.name, res, update); err != nil {
			return err
		}
	}
	if err := tr.write(e.out, w.name); err != nil {
		return err
	}

	values := layerValues(tr, e.p)
	res.Scope = map[string]string{}
	for k := range values {
		res.Scope[k] = "workload"
	}
	ladder, err := climbLadder(w, e)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for k, v := range ladder {
		if _, ok := values[k]; !ok {
			values[k] = v
			res.Scope[k] = "ladder"
		}
	}

	for k, v := range host.values(len(res.Noisy)) {
		values[k] = v
	}

	var missing []string
	res.Metrics, missing = pick(perLayer, values)
	if len(missing) > 0 {
		return fmt.Errorf("internal: per-layer metrics not computed: %v", missing)
	}
	res.Extra = map[string]metric{
		"host.calib_cpu_end": {ms(calibCPU()), "ms"},
		"trace.spans":        {float64(len(tr.spans)), "count"},
	}
	return nil
}

// layerValues turns a tracer's sums and samples into per-layer metrics,
// returning only those the traced code actually fed.
func layerValues(t *tracer, p int) map[string]float64 {
	s := t.sums
	v := map[string]float64{}
	for _, k := range []string{
		"algebraic.construct_s", "algebraic.wake_s", "algebraic.commit_s",
		"algebraic.sent", "algebraic.helpful", "algebraic.useless",
		"sim.engine_self_s", "sim.rounds", "sim.shard_imbalance_s",
		"harness.checkpoint_appends", "fabric.requests", "fabric.bytes_up",
		"runtime.frames_sent", "runtime.redials",
	} {
		if x, ok := s[k]; ok {
			v[k] = x
		}
	}
	if s["sim.run_s"] > 0 {
		v["sim.wakes_per_s"] = s["sim.wakes"] / s["sim.run_s"]
	}
	if recv := s["algebraic.helpful"] + s["algebraic.useless"]; recv > 0 {
		v["rlnc.helpful_frac"] = s["algebraic.helpful"] / recv
	}
	if s["harness.pool_s"] > 0 {
		v["harness.pool_efficiency"] = s["harness.serial_s"] / float64(p) / s["harness.pool_s"]
	}
	if s["harness.trials"] > 0 {
		v["harness.allocs_per_trial"] = s["harness.mallocs"] / s["harness.trials"]
	}
	if xs := t.samples["trace.overhead"]; len(xs) > 0 {
		v["trace_overhead_frac"] = balanced(xs)
	}
	if xs := t.samples["fabric.lease_ms"]; len(xs) > 0 {
		v["fabric.lease_ms_p50"] = median(xs)
	}
	if xs := t.samples["fabric.results_ms"]; len(xs) > 0 {
		v["fabric.results_ms_p50"] = median(xs)
	}
	if s["fabric.worker_s"] > 0 {
		v["fabric.worker_http_frac"] = s["fabric.http_s"] / s["fabric.worker_s"]
		// Same spec, same trial count: 1 − fabric trials/s ÷ local-pool trials/s.
		v["fabric.overhead_frac"] = 1 - s["fabric.local_s"]/s["fabric.wall_s"]
	}
	if frames := s["runtime.frames_sent"]; frames > 0 {
		v["runtime.send_us_mean"] = s["runtime.send_s"] / (frames + s["runtime.dropped"]) * 1e6
		v["runtime.cpu_us_per_frame"] = s["runtime.cpu_s"] / frames * 1e6
		v["runtime.drop_frac"] = s["runtime.dropped"] / (frames + s["runtime.dropped"])
		v["runtime.ticks_mean"] = s["runtime.ticks"] / s["runtime.convergences"]
		v["runtime.tick_rate_frac"] = s["runtime.ticks"] / s["runtime.ticks_due"]
	}
	return v
}

// climbLadder measures the rungs of the stack that workload w does not
// climb itself, on small fixed instances of the other stack workloads,
// and runs the micro-probes, so that every traced run reports the whole
// ladder: a reader can tell host drift from a code change on layers the
// workload does not touch. Its spans are not kept.
func climbLadder(w *workload, e *env) (map[string]float64, error) {
	lt := newTracer()
	for _, rung := range []struct {
		name  string
		scale float64
	}{
		{"scale_sharded", 1.0 / 2}, // n = 2048
		{"live_tcp", 1},            // one convergence
		{"fabric_sweep", 1.0 / 4},  // 1000 trials
	} {
		if rung.name == w.name {
			continue
		}
		small := *e
		small.scale = e.scale * rung.scale
		if _, err := findWorkload(rung.name).traced(&small, 0, lt); err != nil {
			return nil, fmt.Errorf("%s rung: %w", rung.name, err)
		}
	}
	if w.name != "sweep_rank" {
		if err := poolRung(e, lt); err != nil {
			return nil, err
		}
	}
	values := layerValues(lt, e.p)
	if err := runProbes(w, e, values); err != nil {
		return nil, err
	}
	return values, nil
}

// poolRung measures harness.pool_efficiency on a quarter of the fabric
// spec: Σ serial ExecuteTrial time ÷ P ÷ pool wall.
func poolRung(e *env, lt *tracer) error {
	small := *e
	small.scale = e.scale / 4
	spec := fabricSpec(&small)
	_, trials, err := spec.Expand()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, t := range trials {
		if _, err := spec.ExecuteTrial(t); err != nil {
			return err
		}
	}
	lt.add("harness.serial_s", time.Since(t0).Seconds())
	t1 := time.Now()
	if _, err := (harness.Runner{Parallel: e.p}).Run(fabricSpec(&small)); err != nil {
		return err
	}
	lt.add("harness.pool_s", time.Since(t1).Seconds())
	return nil
}
