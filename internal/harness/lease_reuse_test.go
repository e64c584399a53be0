package harness_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"algossip/internal/fabric"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
)

// TestFabricLeaseReusesDecoders: a fabric worker runs each lease on the
// process's idle list, so its second lease of a spec resets the decoders
// its first lease built instead of building its own — and the merged
// results are still the local run's.
func TestFabricLeaseReusesDecoders(t *testing.T) {
	spec := harness.Spec{Name: "lease-reuse", Graph: "randreg", Sizes: []int{16},
		KMode: "half", Q: 256, Trials: 2, Seed: 5, Lean: true}
	var (
		mu   sync.Mutex
		tops []*rlnc.GenNode // the idle list's newest decoder as each trial lands
	)
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{
		Spec: &spec, LeaseChunk: 1, Linger: 10 * time.Millisecond,
		Progress: func(done, total int) {
			idle := harness.IdleDecoders()
			mu.Lock()
			defer mu.Unlock()
			if len(idle) == 0 {
				tops = append(tops, nil)
				return
			}
			tops = append(tops, idle[len(idle)-1])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		rs  *harness.ResultSet
		err error
	}
	done := make(chan result, 1)
	go func() {
		rs, err := c.Run(ctx)
		done <- result{rs, err}
	}()
	if _, err := fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: c.URL(), Name: "w", Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(tops) != 2 || tops[0] == nil {
		t.Fatalf("the two leases left %v on the idle list, want one decoder after each", tops)
	}
	if tops[1] != tops[0] {
		t.Error("the second lease built its own decoders instead of resetting the first lease's")
	}
	want, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.rs.Outcomes, want.Outcomes) {
		t.Errorf("leased outcomes %+v\nlocal %+v", got.rs.Outcomes, want.Outcomes)
	}
}
