package harness

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// steadyCells are the cells whose same-shape trial allocates a constant:
// each layout at three shapes, held on its own (building GF(q) allocates
// a q-dependent number of tables, and a sharded trial builds the sharded
// engine), and TAG, whose Phase 2 protocol is renewed the same way. The
// sharded cells are generation-coded, as at scale. Two shards split the
// wake phase and the commit from n = 128, two bitmap words, on: there the
// engine, built per trial, allocates its fork's goroutine body once, so
// that cell starts at n = 128. TAG's cell starts at n = 32: below 16
// bytes, the round-robin selector's n flags share a block with another
// small allocation, and one allocation fewer is counted.
var steadyCells = []struct {
	name          string
	proto         Protocol
	q, gen, shard int
	shapes        []struct{ n, k int }
}{
	{"gf2", ProtocolUniformAG, 2, 0, 0, []struct{ n, k int }{{8, 4}, {32, 16}, {64, 100}}},
	{"gf16", ProtocolUniformAG, 16, 0, 0, []struct{ n, k int }{{8, 4}, {32, 16}, {64, 100}}},
	{"gf256", ProtocolUniformAG, 256, 0, 0, []struct{ n, k int }{{8, 4}, {32, 16}, {64, 100}}},
	{"gf2/gen4/shards1", ProtocolUniformAG, 2, 4, 1, []struct{ n, k int }{{8, 4}, {64, 16}, {256, 100}}},
	{"gf2/gen4/shards2", ProtocolUniformAG, 2, 4, 2, []struct{ n, k int }{{128, 4}, {256, 16}, {1024, 100}}},
	{"tag-brr/gf2", ProtocolTAGRR, 2, 0, 0, []struct{ n, k int }{{32, 16}, {64, 100}, {256, 64}}},
}

// steadySpec is one shape of a steady cell.
func steadySpec(q, gen, shards, n, k int) GossipSpec {
	g := graph.RandomRegular(n, 4, core.NewRand(uint64(n)))
	return GossipSpec{Graph: g, K: k, Q: q, GenSize: gen, Shards: shards, Lean: true}
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocsSteadyStateTrial pins a trial that follows one of its shape
// at a constant number of allocations, whatever n and k: the protocol,
// its decoders and buffers, and on the sharded path its shard core —
// streams, slots, slot packets, commit workers — are the earlier trial's,
// taken off the idle list and reset. What a trial builds anew — the
// field, the selector, the RNG streams it draws from, the engine, the
// placement, TAG's spanning-tree protocol — is the same handful at every
// size. Then shapes take turns, A B C D E A B C D E …: each revisit takes
// its own shape's protocol back off the list past the others and
// allocates that same-shape constant. One P, so a fork (sim.Crew: a
// payload commit pass, a sharded round) schedules the same way every
// time — on several, whether its wait allocates a sudog depends on which
// P ran what — and the collector off, since a collection empties the
// runtime's and fmt's pools; the race detector's build drops pool items
// at random, so it skips.
func TestAllocsSteadyStateTrial(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	steady := func(spec GossipSpec, proto Protocol) (trial func(), allocs float64) {
		trial = func() {
			if _, err := Execute(spec, proto, 3); err != nil {
				t.Fatal(err)
			}
		}
		return trial, testing.AllocsPerRun(3, trial)
	}
	for _, c := range steadyCells {
		var base float64
		for i, shape := range c.shapes {
			_, allocs := steady(steadySpec(c.q, c.gen, c.shard, shape.n, shape.k), c.proto)
			if i == 0 {
				base = allocs
			}
			if allocs != base {
				t.Errorf("%s n=%d k=%d: a same-shape trial allocated %.0f times, at the first shape %.0f",
					c.name, shape.n, shape.k, allocs, base)
			}
		}
		if base > 64 {
			t.Errorf("%s: a same-shape trial allocated %.0f times: its protocol is not being reused", c.name, base)
		}
	}

	async := steadySpec(2, 0, 0, 32, 16)
	async.Model = core.Asynchronous
	turns := []struct {
		name  string
		spec  GossipSpec
		proto Protocol
	}{
		{"gf2", steadySpec(2, 0, 0, 32, 16), ProtocolUniformAG},
		{"gf256", steadySpec(256, 0, 0, 32, 16), ProtocolUniformAG},
		{"async/gf2", async, ProtocolUniformAG},
		{"gf2/gen4/shards2", steadySpec(2, 4, 2, 128, 16), ProtocolUniformAG},
		{"tag-brr/gf2", steadySpec(2, 0, 0, 64, 32), ProtocolTAGRR},
	}
	trials := make([]func(), len(turns))
	want := make([]uint64, len(turns))
	for i, tn := range turns {
		var allocs float64
		trials[i], allocs = steady(tn.spec, tn.proto)
		want[i] = uint64(allocs)
	}
	for round := range 3 {
		for i, tn := range turns {
			if got := mallocs(trials[i]); got != want[i] {
				t.Errorf("round %d, %s: a trial after the other shapes allocated %d times, after its own shape %d",
					round, tn.name, got, want[i])
			}
		}
	}
}

// TestExecuteReusesState: every entry point shares the one idle list. A
// Runner's trials give their protocols back to it, so an Execute after a
// Runner cell of its shape allocates the same-shape constant
// (TestAllocsSteadyStateTrial), at every shape of every steady cell.
func TestExecuteReusesState(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range steadyCells {
		for _, shape := range c.shapes {
			spec := steadySpec(c.q, c.gen, c.shard, shape.n, shape.k)
			call := func() {
				if _, err := Execute(spec, c.proto, 3); err != nil {
					t.Fatal(err)
				}
			}
			steady := testing.AllocsPerRun(3, call)
			grid := &Spec{Name: c.name, Graphs: []*graph.Graph{spec.Graph}, Ks: []int{shape.k},
				Protocol: c.proto, Q: c.q, GenSize: c.gen, Shards: c.shard, Lean: true, Trials: 1, Seed: 9}
			if _, err := (Runner{Parallel: 1}).Run(grid); err != nil {
				t.Fatal(err)
			}
			if got := mallocs(call); float64(got) != steady {
				t.Errorf("%s n=%d k=%d: an Execute after a Runner cell of its shape allocated %d times, after an Execute %.0f",
					c.name, shape.n, shape.k, got, steady)
			}
		}
	}
}

// TestConcurrentExecuteMatchesFresh: goroutines calling Execute at once
// on mixed shapes — whole-k and generation-coded, GF(2) and GF(256),
// classic and sharded, payload, loss, and TAG, whose Phase 2 protocol
// takes and returns one too — take each other's protocols off the idle
// list in no fixed order, and each outcome must be the one a fresh build
// returns.
func TestConcurrentExecuteMatchesFresh(t *testing.T) {
	g16 := graph.RandomRegular(16, 4, core.NewRand(16))
	g24 := graph.RandomRegular(24, 4, core.NewRand(24))
	type job struct {
		spec  GossipSpec
		proto Protocol
	}
	jobs := []job{
		{GossipSpec{Graph: g16, K: 8, Q: 2}, ProtocolUniformAG},
		{GossipSpec{Graph: g16, K: 8, Q: 256}, ProtocolUniformAG},
		{GossipSpec{Graph: g16, K: 8, Q: 2, GenSize: 4, Shards: 2}, ProtocolUniformAG},
		{GossipSpec{Graph: g16, K: 8, Q: 2, Shards: 1}, ProtocolUniformAG},
		{GossipSpec{Graph: g24, K: 12, Q: 16, PayloadLen: 8}, ProtocolUniformAG},
		{GossipSpec{Graph: g24, K: 12, Q: 2, LossRate: 0.2, GenSize: 3, Shards: 2}, ProtocolUniformAG},
		{GossipSpec{Graph: g24, K: 12, Q: 2}, ProtocolTAGRR},
	}
	const rounds = 6
	want := make([][rounds]Outcome, len(jobs))
	for j, jb := range jobs {
		for r := range rounds {
			o, err := execute(jb.spec, jb.proto, uint64(r), false)
			if err != nil {
				t.Fatal(err)
			}
			want[j][r] = o
		}
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for i := range jobs {
					j := (w + i*(r+1)) % len(jobs)
					got, err := Execute(jobs[j].spec, jobs[j].proto, uint64(r))
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[j][r]) {
						t.Errorf("goroutine %d, job %d, seed %d: Execute returned\n%+v\nwant\n%+v", w, j, r, got, want[j][r])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShuffledTrialsMatchFresh extends the determinism contract across
// the process's history: the trials of several specs — rank-only GF(2)
// and GF(256), generations, the asynchronous model, loss, churn, an
// adversary with stragglers, shards, TAG in between — run in a random order, each taking over whatever protocol of
// its shape an earlier trial left on the idle list, and each must return
// exactly the Outcome of a fresh build. The two sharded specs share n
// but not their shape, so one shard core passes between shard counts and
// coding layouts (algebraic.Protocol.SplitShardCore); under -race its
// kept memory is poisoned (0xA5) each time, so a slot, packet or bitmap
// word read before it is written changes an outcome here.
func TestShuffledTrialsMatchFresh(t *testing.T) {
	churn, err := ParseDynamics("churn:rate=0.1")
	if err != nil {
		t.Fatal(err)
	}
	adv, err := ParseAdversary("byzantine:frac=0.2,mode=mix")
	if err != nil {
		t.Fatal(err)
	}
	cls, err := ParseClasses("straggler:frac=0.2,slow=4")
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Graph: "randreg", Sizes: []int{12, 16}, KMode: "half", Q: 2, Trials: 3, Seed: 1},
		{Graph: "randreg", Sizes: []int{12, 16}, KMode: "half", Q: 256, Trials: 3, Seed: 2},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 16, GenSize: 3, Trials: 2, Seed: 3},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 2, Model: core.Asynchronous, Trials: 2, Seed: 4},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 256, LossRate: 0.2, Trials: 2, Seed: 5},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 2, Dynamics: churn, Trials: 2, Seed: 6},
		{Graph: "complete", Sizes: []int{16}, KMode: "half", Q: 16, Adversary: adv, Classes: cls, Trials: 2, Seed: 7},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 2, Shards: 2, Trials: 2, Seed: 8},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 2, GenSize: 4, Shards: 1, Trials: 2, Seed: 10},
		{Graph: "randreg", Sizes: []int{16}, KMode: "half", Q: 2, Protocol: ProtocolTAGRR, Trials: 2, Seed: 9},
	}
	type job struct {
		spec  *Spec
		trial Trial
	}
	var jobs []job
	for i := range specs {
		specs[i].Name = fmt.Sprint("spec", i)
		_, trials, err := specs[i].Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			jobs = append(jobs, job{&specs[i], tr})
		}
	}
	for _, seed := range []uint64{1, 2} {
		rand.New(rand.NewPCG(seed, 0)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			want, err := j.spec.ExecuteTrial(j.trial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := j.spec.executeTrial(j.trial)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("order %d, %s trial %d off the idle list:\n%+v\nfresh:\n%+v", seed, j.spec.Name, j.trial.Index, got, want)
			}
		}
	}
}
