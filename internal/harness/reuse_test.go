package harness

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// TestAllocsSteadyStateTrial pins a Runner worker's second trial of a
// shape at a constant number of allocations, whatever n and k: the
// protocol, its decoders and its buffers are the first trial's, reset.
// What a trial builds anew — the field, the selector, the RNG streams,
// the engine, the placement — is the same handful at every size. Each
// field order is held on its own (building GF(q) allocates a q-dependent
// number of tables). One P, so no commit pass starts a goroutine, and the
// collector off, since fmt keeps its printers in a sync.Pool; the race
// detector's build drops pool items at random, so it skips.
func TestAllocsSteadyStateTrial(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, q := range []int{2, 16, 256} {
		var base float64
		for i, shape := range []struct{ n, k int }{{8, 4}, {32, 16}, {64, 100}} {
			g := graph.RandomRegular(shape.n, 4, core.NewRand(uint64(shape.n)))
			spec := GossipSpec{Graph: g, K: shape.k, Q: q, Lean: true}
			var st trialState
			trial := func() {
				if _, err := execute(spec, ProtocolUniformAG, 3, &st); err != nil {
					t.Fatal(err)
				}
			}
			trial()
			allocs := testing.AllocsPerRun(3, trial)
			if i == 0 {
				base = allocs
			}
			if allocs != base {
				t.Errorf("q=%d n=%d k=%d: a worker's same-shape trial allocated %.0f times, at the first shape %.0f",
					q, shape.n, shape.k, allocs, base)
			}
		}
		if base > 64 {
			t.Errorf("q=%d: a worker's same-shape trial allocated %.0f times: its protocol is not being reused", q, base)
		}
	}
}

// TestShuffledTrialsMatchFresh extends the determinism contract across a
// worker's history: the trials of several specs — rank-only GF(2) and
// GF(256), generations, the asynchronous model, loss, churn, an
// adversary with stragglers, shards, another protocol in between — run
// in a random order on one worker state, each taking over whatever the
// trial before it left, and each must return exactly the Outcome of a
// trial run on nothing.
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
		var st trialState
		for _, j := range jobs {
			want, err := j.spec.ExecuteTrial(j.trial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := j.spec.executeTrial(j.trial, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("order %d, %s trial %d on a worker's state:\n%+v\non none:\n%+v", seed, j.spec.Name, j.trial.Index, got, want)
			}
		}
	}
}
