package algossip_test

// Whole-simulation macro-benchmarks: while internal/gf and internal/rlnc
// pin the coding kernels, nothing below measures what an experiment
// actually pays per trial — protocol construction, emit/receive over every
// transmission, staged delivery, and completion tracking. Each benchmark
// op is one complete uniform-AG trial through harness.Execute (the single
// dispatch point all binaries share), so ns/op is trial latency and
// 1e9/ns-op is trials/sec. allocs/op is part of the CI gate
// (BENCH_SIM.json via cmd/benchdelta): the coded hot path is pooled and
// bit-packed, and an alloc crept back into send/receive is a regression
// even when ns/op noise hides it.
//
// The grid follows the experiment sweeps: complete/ring/random-regular at
// n ∈ {64, 256, 1024} over GF(2) (bit-packed backend), GF(16) and
// GF(256) (byte rows on the avx2/gfni kernel tiers, bit-sliced on the
// pure-Go ones), k = min(n/2, 128) so the O(rank·k) elimination cost
// stays bounded at n=1024. Payload and dynamic-topology variants cover
// the other hot configurations: the GF(2) XOR payload path, the GF(2^m)
// payload path, and the per-round topology stepping.

import (
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
)

// benchK caps k at 128 so large-n cells stay CI-sized: reduce cost grows
// as rank·k, and k=512 GF(256) trials would each take minutes.
func benchK(n int) int {
	if n/2 > 128 {
		return 128
	}
	return n / 2
}

// simGraph builds the benchmark topology from its family name with a
// fixed seed (stream 999, the harness graph-construction layout).
func simGraph(b *testing.B, family string, n int) *graph.Graph {
	b.Helper()
	g, err := graph.FromName(family, n, core.NewRand(core.SplitSeed(77, 999)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// runSimTrials executes one full trial per iteration with per-iteration
// derived seeds, reporting the mean stopping time alongside the timing.
func runSimTrials(b *testing.B, spec harness.GossipSpec) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		o, err := harness.Execute(spec, harness.ProtocolUniformAG, core.SplitSeed(31, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += o.Result.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}

// BenchmarkSimUniformAG is the headline macro-benchmark grid: one op is
// one complete uniform algebraic-gossip trial.
func BenchmarkSimUniformAG(b *testing.B) {
	for _, family := range []string{"complete", "ring", "randreg"} {
		for _, n := range []int{64, 256, 1024} {
			for _, q := range []int{2, 16, 256} {
				b.Run(fmt.Sprintf("%s/n=%d/gf=%d", family, n, q), func(b *testing.B) {
					// Built inside the sub-benchmark (then excluded via
					// ResetTimer in runSimTrials) so non-matching cells
					// don't pay for n=1024 graph construction.
					g := simGraph(b, family, n)
					runSimTrials(b, harness.GossipSpec{
						Graph: g, K: benchK(n), Q: q, Lean: true,
					})
				})
			}
		}
	}
}

// BenchmarkSimPayloadAG carries real payloads so the combine kernels run
// end to end: GF(2) exercises the word-wise XOR payload path of the
// bit-packed backend, GF(16) and GF(256) the byte kernels (the plane
// kernels under ALGOSSIP_GF_TIER=scalar).
func BenchmarkSimPayloadAG(b *testing.B) {
	for _, q := range []int{2, 16, 256} {
		b.Run(fmt.Sprintf("complete/n=256/gf=%d/r=1024", q), func(b *testing.B) {
			g := simGraph(b, "complete", 256)
			runSimTrials(b, harness.GossipSpec{
				Graph: g, K: benchK(256), Q: q, PayloadLen: 1024, Lean: true,
			})
		})
	}
}

// BenchmarkSimGenerationAG runs generation-coded uniform AG (the web-scale
// mode of E16): ⌈k/g⌉ independent small decoders per node instead of one
// k-wide matrix, capping reduce cost at O(g·rank) per receive. The grid
// pins both the generation hot path (GenNode emit/receive dispatch,
// rank/nonEmpty caching) and its scaling against full-span coding: at
// n=1024/gf=256 the g=16 row should beat the matching BenchmarkSimUniformAG
// cell by roughly the k/g decode-cost ratio.
func BenchmarkSimGenerationAG(b *testing.B) {
	for _, family := range []string{"complete", "randreg"} {
		for _, n := range []int{256, 1024} {
			for _, q := range []int{2, 256} {
				b.Run(fmt.Sprintf("%s/n=%d/gf=%d/g=16", family, n, q), func(b *testing.B) {
					g := simGraph(b, family, n)
					runSimTrials(b, harness.GossipSpec{
						Graph: g, K: benchK(n), Q: q, GenSize: 16, Lean: true,
					})
				})
			}
		}
	}
}

// BenchmarkSimShardedAG runs the round-parallel sharded engine on the
// generation-coded configuration. shards=1 isolates the staging/commit
// overhead of sharded semantics against the classic serial engine (same
// trajectory family, different bookkeeping); shards=4 shows the speedup
// of fanning out both the wake phase and the commit. The counts are
// pinned — not GOMAXPROCS — because the benchmark name feeds the
// benchdelta baseline, which fails on entries missing from a run; the
// trajectory is identical for any positive count, so oversharding a
// smaller box only costs idle workers.
func BenchmarkSimShardedAG(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("randreg/n=1024/gf=2/g=16/shards=%d", shards), func(b *testing.B) {
			g := simGraph(b, "randreg", 1024)
			runSimTrials(b, harness.GossipSpec{
				Graph: g, K: benchK(1024), Q: 2, GenSize: 16, Shards: shards, Lean: true,
			})
		})
	}
}

// BenchmarkSimDynamicAG runs uniform AG over a time-varying topology
// (i.i.d. per-round edge failures on a random-regular graph), covering
// the round-boundary topology stepping and staged-delivery filtering.
func BenchmarkSimDynamicAG(b *testing.B) {
	b.Run("randreg/n=256/gf=2/edge=0.1", func(b *testing.B) {
		g := simGraph(b, "randreg", 256)
		dyn, err := harness.ParseDynamics("edge:rate=0.1")
		if err != nil {
			b.Fatal(err)
		}
		runSimTrials(b, harness.GossipSpec{
			Graph: g, K: benchK(256), Q: 2, Dynamics: dyn, Lean: true,
		})
	})
}
