package main

// metricDef names one metric of the benchmark. The tables below are the
// program's side of BENCHMARK.json; bench_test.go fails when the two
// disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and reported on every workload. Bound is the share of the
// reference median by which the metric may get worse; how each was
// derived from measured spreads is in README.md.
//
// failed_frac from the issue is not here: the driver's contract carries
// it as the result line's attempted/failed counts, and a metric that is
// always 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"trials_per_s", "1/s", "higher", 0.25},
	{"trial_ms_p50", "ms", "lower", 0.25},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"cpu_s_per_trial", "s", "lower", 0.25},
	{"alloc_mb_per_trial", "MB", "lower", 0.25},
	{"rounds_mean", "rounds", "lower", 0.25},
}

// perLayer are single-layer metrics from the traced run: wrapper-derived
// busy times and counts, and the ladder's micro-probes. They carry no
// bound. Which end-to-end metric each should move is in README.md.
var perLayer = []metricDef{
	// gf: computed GB/s (bytes the kernel touches, not measured traffic).
	{Name: "gf.addmul_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "gf.addmul_sliced_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "gf.xor_words_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "gf.pack_sliced_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "gf.unpack_sliced_gb_s", Unit: "GB/s", Better: "higher"},
	// linalg
	{Name: "linalg.bit_add_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.bit_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.bit16_add_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.bit16_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.sliced_add_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.sliced_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.sliced_add_payload_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.sliced_emit_payload_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.solve_ms", Unit: "ms", Better: "lower"},
	// rlnc
	{Name: "rlnc.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.receive_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.gen_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.gen_receive_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.adapt_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.expand_ns", Unit: "ns", Better: "lower"},
	{Name: "rlnc.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "rlnc.helpful_frac", Unit: "frac", Better: "higher"},
	// gossip/algebraic (plus tag for the TAG cell), from the protocol wrapper
	{Name: "algebraic.construct_s", Unit: "s", Better: "lower"},
	{Name: "algebraic.wake_s", Unit: "s", Better: "lower"},
	{Name: "algebraic.commit_s", Unit: "s", Better: "lower"},
	{Name: "algebraic.sent", Unit: "count", Better: "lower"},
	{Name: "algebraic.helpful", Unit: "count", Better: "higher"},
	{Name: "algebraic.useless", Unit: "count", Better: "lower"},
	// sim
	{Name: "sim.engine_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.rounds", Unit: "rounds", Better: "lower"},
	{Name: "sim.wakes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.shard_imbalance_s", Unit: "s", Better: "lower"},
	{Name: "sim.selector_ns", Unit: "ns", Better: "lower"},
	// harness
	{Name: "harness.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.pool_efficiency", Unit: "frac", Better: "higher"},
	{Name: "harness.allocs_per_trial", Unit: "count", Better: "lower"},
	{Name: "harness.csv_write_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.checkpoint_append_us", Unit: "us", Better: "lower"},
	{Name: "harness.checkpoint_appends", Unit: "count", Better: "lower"},
	// fabric, from the timing RoundTripper
	{Name: "fabric.lease_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fabric.results_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fabric.requests", Unit: "count", Better: "lower"},
	{Name: "fabric.bytes_up", Unit: "bytes", Better: "lower"},
	{Name: "fabric.worker_http_frac", Unit: "frac", Better: "lower"},
	{Name: "fabric.overhead_frac", Unit: "frac", Better: "lower"},
	// resultstore
	{Name: "resultstore.append_us", Unit: "us", Better: "lower"},
	{Name: "resultstore.query_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.open_rebuild_ms", Unit: "ms", Better: "lower"},
	// wire
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_bytes", Unit: "bytes", Better: "lower"},
	// runtime, from the Transport wrapper, Status() and the frame pumps
	{Name: "runtime.send_us_mean", Unit: "us", Better: "lower"},
	{Name: "runtime.frames_sent", Unit: "count", Better: "lower"},
	{Name: "runtime.drop_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.redials", Unit: "count", Better: "lower"},
	{Name: "runtime.ticks_mean", Unit: "ticks", Better: "lower"},
	{Name: "runtime.tick_rate_frac", Unit: "frac", Better: "higher"},
	{Name: "runtime.cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "runtime.chan_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.tcp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.udp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.tcp_small_frames_per_s", Unit: "1/s", Better: "higher"},
	// host: diagnostics that tell host drift from a code change; never gated
	{Name: "host.calib_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_mem_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.noisy_reps", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the metric map for defs from values, keeping exactly the
// defined names; ok is false when a value is missing.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}
