package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"algossip/internal/fabric"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
)

// TestQueryFlagConvention: -dynamics and -generations filter on their value
// when passed — the zero values being the static topology and whole-k coding
// — and are wildcards when not; -rate -1 and -regime any stay "any". The
// store holds a static, an edge-failure and a generation-coded sweep of one
// (graph, n): the paper's protocol is the first of the three only.
func TestQueryFlagConvention(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range [][]string{nil, {"-dynamics", "edge:rate=0.2"}, {"-generations", "4"}} {
		spec := harness.Spec{Name: "sweep", Graph: "ring", Sizes: []int{16}, KMode: "half", Trials: 3, Seed: 1, Lean: true}
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		spec.BindFlags(fs)
		if err := fs.Parse(words); err != nil {
			t.Fatal(err)
		}
		rs, err := harness.Runner{Parallel: 1}.Run(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(resultstore.FromResultSet(rs)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args   []string
		trials int
	}{
		{nil, 9},
		{[]string{"-rate", "-1", "-regime", "any"}, 9},
		{[]string{"-dynamics", ""}, 6},
		{[]string{"-generations", "0"}, 6},
		{[]string{"-dynamics", "", "-generations", "0"}, 3},
		{[]string{"-dynamics", "edge"}, 3},
		{[]string{"-dynamics", "edge:rate=0.2,period=1"}, 3},
		{[]string{"-dynamics", "churn"}, 0},
		{[]string{"-generations", "4"}, 3},
		{[]string{"-rate", "0", "-regime", ""}, 9},
	} {
		var buf bytes.Buffer
		args := append([]string{"-store", storePath, "-graph", "ring", "-n", "16"}, c.args...)
		if err := runQuery(args, &buf); err != nil {
			t.Fatalf("query %v: %v", c.args, err)
		}
		if want := fmt.Sprintf("trials=%d ", c.trials); !strings.HasPrefix(buf.String(), want) {
			t.Errorf("query %v = %q, want %q", c.args, buf.String(), want)
		}
	}
}

func TestFabricdRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"coordinator"}, // a sweep is served by sweep -listen
		{"worker"},      // -coordinator is required
		{"status"},      // -coordinator is required
		{"query"},       // -store is required
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("fabricd %v accepted", args)
		}
	}
}

// TestWorkerAndStatus: a worker runs a served work-list to the end, and
// status reads the finished counters while the server lingers.
func TestWorkerAndStatus(t *testing.T) {
	spec := harness.Spec{Name: "sweep", Graph: "line", Sizes: []int{8, 12}, KMode: "half", Q: 2, Trials: 2, Seed: 5, Lean: true}
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Spec: &spec, LeaseChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		served <- err
	}()
	var out bytes.Buffer
	if err := run([]string{"worker", "-coordinator", c.URL(), "-parallel", "2", "-name", "w0"}, &out); err != nil ||
		out.String() != "fabricd: worker w0 executed 4 trials\n" {
		t.Fatalf("worker: %q, %v", out.String(), err)
	}
	out.Reset()
	if err := run([]string{"status", "-coordinator", c.URL()}, &out); err != nil || !strings.Contains(out.String(), `"done":4`) {
		t.Fatalf("status: %q, %v", out.String(), err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
