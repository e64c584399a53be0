package algossip_test

// One benchmark per paper artifact, matching the experiment index in
// DESIGN.md (E1-E18, A1-A7; the sweep-shaped E13-E18 have no benchmark
// here). Each benchmark runs the core measurement of
// its experiment at a fixed representative size and reports the stopping
// time via the custom "rounds" metric (and "speedup"/"ratio" where the
// artifact is a comparison), so `go test -bench=.` regenerates the paper's
// quantitative story end to end.

import (
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/queueing"
)

// rounds runs one trial through harness.Execute, the way every artifact
// does, and returns its stopping time.
func rounds(spec harness.GossipSpec, proto harness.Protocol, seed uint64) (int, error) {
	o, err := harness.Execute(spec, proto, seed)
	return o.Result.Rounds, err
}

// reportMeanRounds runs fn b.N times and reports the mean stopping time.
func reportMeanRounds(b *testing.B, fn func(seed uint64) (int, error)) {
	b.Helper()
	total := 0
	for i := 0; i < b.N; i++ {
		r, err := fn(core.SplitSeed(7, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += r
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}

// BenchmarkTable1UniformAGAnyGraph (E1): uniform algebraic gossip on an
// arbitrary (bottlenecked) graph — Theorem 1's O((k+log n+D)Δ) regime.
func BenchmarkTable1UniformAGAnyGraph(b *testing.B) {
	g := graph.Barbell(64)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 32}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkTable1ConstDegreeOptimal (E2): Θ(k+D) on a constant-degree
// graph (line, k = n/2); the reported rounds stay proportional to k+D.
func BenchmarkTable1ConstDegreeOptimal(b *testing.B) {
	g := graph.Line(128)
	b.ReportMetric(float64(64+g.Diameter()), "k+D")
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkTable1TAGGeneral (E3): TAG with a uniform broadcast tree on the
// barbell — Theorem 4's O(k + log n + d(S) + t(S)).
func BenchmarkTable1TAGGeneral(b *testing.B) {
	g := graph.Barbell(64)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolTAGUniform, seed)
	})
}

// BenchmarkTable1TAGRoundRobin (E4): TAG+B_RR with k=n on the barbell —
// Theorem 5's Θ(n) on any graph.
func BenchmarkTable1TAGRoundRobin(b *testing.B) {
	g := graph.Barbell(96)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 96}, harness.ProtocolTAGRR, seed)
	})
}

// BenchmarkTable1TAGIS (E5): TAG+IS on a clique chain (large weak
// conductance) — Theorems 6-8's Θ(k).
func BenchmarkTable1TAGIS(b *testing.B) {
	g := graph.CliqueChain(4, 24)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 2 * g.N()}, harness.ProtocolTAGIS, seed)
	})
}

// BenchmarkTable2Line (E6): uniform AG on the line — ours O(k+n) vs
// Haeupler's O(k + n log²n).
func BenchmarkTable2Line(b *testing.B) {
	g := graph.Line(128)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkTable2Grid (E7): uniform AG on the √n x √n grid — ours O(k+√n).
func BenchmarkTable2Grid(b *testing.B) {
	g := graph.Grid(12, 12)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 72}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkTable2BinaryTree (E8): uniform AG on the complete binary tree —
// ours O(k + log n), an Ω(n log n/k) improvement over O(k + n log²n).
func BenchmarkTable2BinaryTree(b *testing.B) {
	g := graph.BinaryTree(127)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkFigure1QueueChain (E9): the Theorem 2 queueing system Q̂^line —
// k customers through lmax M/M/1 queues; reports the mean drain time.
func BenchmarkFigure1QueueChain(b *testing.B) {
	const k, lmax, mu = 100, 10, 1.0
	total := 0.0
	for i := 0; i < b.N; i++ {
		rng := core.NewRand(core.SplitSeed(9, uint64(i)))
		total += queueing.SimulateLineAllAtEnd(lmax, k, queueing.Exponential(mu), rng)
	}
	b.ReportMetric(total/float64(b.N), "drain-time")
}

// BenchmarkBarbellSpeedup (E10): the headline comparison — uniform AG vs
// TAG+B_RR on the barbell with k = n; reports the speedup ratio.
func BenchmarkBarbellSpeedup(b *testing.B) {
	g := graph.Barbell(64)
	var agSum, tagSum float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(11, uint64(i))
		ag, err := rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		tag, err := rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolTAGRR, seed)
		if err != nil {
			b.Fatal(err)
		}
		agSum += float64(ag)
		tagSum += float64(tag)
	}
	b.ReportMetric(agSum/float64(b.N), "uniform-rounds")
	b.ReportMetric(tagSum/float64(b.N), "tag-rounds")
	b.ReportMetric(agSum/tagSum, "speedup")
}

// BenchmarkLowerBoundFloor (E11): measured rounds against the Ω(k)
// information-theoretic floor k(n-1)/2n on the complete graph; reports the
// measured/floor ratio (always >= 1).
func BenchmarkLowerBoundFloor(b *testing.B) {
	g := graph.Complete(64)
	floor := float64(64*(g.N()-1)) / float64(2*g.N())
	total := 0.0
	for i := 0; i < b.N; i++ {
		res, err := rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG,
			core.SplitSeed(13, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res)
	}
	b.ReportMetric(total/float64(b.N), "rounds")
	b.ReportMetric(total/float64(b.N)/floor, "rounds-over-floor")
}

// BenchmarkCompleteGraphAG (E12): Deb et al.'s setting — complete graph,
// k = n, Θ(k) rounds; reports rounds/k.
func BenchmarkCompleteGraphAG(b *testing.B) {
	g := graph.Complete(128)
	total := 0.0
	for i := 0; i < b.N; i++ {
		res, err := rounds(harness.GossipSpec{Graph: g, K: 128}, harness.ProtocolUniformAG,
			core.SplitSeed(15, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res)
	}
	b.ReportMetric(total/float64(b.N), "rounds")
	b.ReportMetric(total/float64(b.N)/128, "rounds-per-k")
}

// BenchmarkAblationFieldSize (A1): q=256 vs the q=2 worst case the bounds
// assume; reports both round counts.
func BenchmarkAblationFieldSize(b *testing.B) {
	g := graph.Grid(8, 8)
	var q2, q256 float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(17, uint64(i))
		a, err := rounds(harness.GossipSpec{Graph: g, K: 32, Q: 2}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		c, err := rounds(harness.GossipSpec{Graph: g, K: 32, Q: 256}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		q2 += float64(a)
		q256 += float64(c)
	}
	b.ReportMetric(q2/float64(b.N), "rounds-q2")
	b.ReportMetric(q256/float64(b.N), "rounds-q256")
}

// BenchmarkAblationAction (A2): EXCHANGE vs PUSH on the star graph, where
// the hub bottleneck separates the actions.
func BenchmarkAblationAction(b *testing.B) {
	g := graph.Star(64)
	var xchg, push float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(19, uint64(i))
		x, err := rounds(harness.GossipSpec{Graph: g, K: 32, Action: core.Exchange}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		p, err := rounds(harness.GossipSpec{Graph: g, K: 32, Action: core.Push}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		xchg += float64(x)
		push += float64(p)
	}
	b.ReportMetric(xchg/float64(b.N), "rounds-exchange")
	b.ReportMetric(push/float64(b.N), "rounds-push")
}

// BenchmarkAblationUncoded (A3): RLNC vs store-and-forward on the complete
// graph with k = n; reports the coupon-collector penalty ratio.
func BenchmarkAblationUncoded(b *testing.B) {
	g := graph.Complete(64)
	var coded, plain float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(21, uint64(i))
		c, err := rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		u, err := rounds(harness.GossipSpec{Graph: g, K: 64}, harness.ProtocolUncoded, seed)
		if err != nil {
			b.Fatal(err)
		}
		coded += float64(c)
		plain += float64(u)
	}
	b.ReportMetric(coded/float64(b.N), "rounds-rlnc")
	b.ReportMetric(plain/float64(b.N), "rounds-uncoded")
	b.ReportMetric(plain/coded, "uncoded-penalty")
}

// BenchmarkAblationRankOnly (A4): the rank-only fast path vs the payload
// backend at q=256 — identical stopping times, different wall-clock cost;
// this benchmark times the fast path (compare with the payload decode cost
// implicit in BenchmarkAblationFieldSize's q256 leg).
func BenchmarkAblationRankOnly(b *testing.B) {
	g := graph.Grid(8, 8)
	reportMeanRounds(b, func(seed uint64) (int, error) {
		return rounds(harness.GossipSpec{Graph: g, K: 32, Q: 256}, harness.ProtocolUniformAG, seed)
	})
}

// BenchmarkAblationSyncVsAsync (A5): the two time models on the grid;
// reports both round counts (Theorem 1 bounds them identically).
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	g := graph.Grid(8, 8)
	var syncR, asyncR float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(23, uint64(i))
		s, err := rounds(harness.GossipSpec{Graph: g, K: 32, Model: core.Synchronous}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		a, err := rounds(harness.GossipSpec{Graph: g, K: 32, Model: core.Asynchronous}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		syncR += float64(s)
		asyncR += float64(a)
	}
	b.ReportMetric(syncR/float64(b.N), "rounds-sync")
	b.ReportMetric(asyncR/float64(b.N), "rounds-async")
}

// BenchmarkAblationPacketLoss (A6): uniform AG under 30% i.i.d. packet
// loss; reports the slowdown vs the clean run (expected ~1/(1-p) = 1.43).
func BenchmarkAblationPacketLoss(b *testing.B) {
	g := graph.Grid(8, 8)
	var clean, lossy float64
	for i := 0; i < b.N; i++ {
		seed := core.SplitSeed(25, uint64(i))
		c, err := rounds(harness.GossipSpec{Graph: g, K: 32}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		l, err := rounds(harness.GossipSpec{Graph: g, K: 32, LossRate: 0.3}, harness.ProtocolUniformAG, seed)
		if err != nil {
			b.Fatal(err)
		}
		clean += float64(c)
		lossy += float64(l)
	}
	b.ReportMetric(clean/float64(b.N), "rounds-clean")
	b.ReportMetric(lossy/float64(b.N), "rounds-lossy")
	b.ReportMetric(lossy/clean, "loss-slowdown")
}

// BenchmarkAblationGenerations (A7): generation-coded gossip with an
// intermediate generation size vs the paper's single-generation protocol.
func BenchmarkAblationGenerations(b *testing.B) {
	spec := harness.GossipSpec{Graph: graph.Complete(32), K: 32, GenSize: 16, Lean: true}
	total, bits := 0.0, 0
	for i := 0; i < b.N; i++ {
		o, err := harness.Execute(spec, harness.ProtocolUniformAG, core.SplitSeed(27, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		total += float64(o.Result.Rounds)
		bits = o.MessageBits
	}
	b.ReportMetric(total/float64(b.N), "rounds")
	b.ReportMetric(float64(bits), "bits-per-packet")
}
