package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"algossip/internal/ctlhttp"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
)

// testSpec is the shared grid: 2 sizes x 4 trials = 8 trials, small
// enough to run in milliseconds, large enough to spread across leases.
func testSpec() harness.Spec {
	return harness.Spec{
		Name: "fabric-test", Graph: "ring", Sizes: []int{8, 16},
		KMode: "const:2", Trials: 4, Seed: 7, Lean: true,
		Fabric: "fab-e2e",
	}
}

// baselineCSV is the single-process ground truth every fabric run must
// reproduce byte for byte. Fabric is deliberately left unset: the
// session label must not influence a single output byte.
func baselineCSV(t *testing.T) string {
	t.Helper()
	spec := testSpec()
	spec.Fabric = ""
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := harness.WriteCSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func toCSV(t *testing.T, rs *harness.ResultSet) string {
	t.Helper()
	var sb strings.Builder
	if err := harness.WriteCSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// runFabric spins up a coordinator plus n workers and returns the merged
// result set along with the per-worker executed counts.
func runFabric(t *testing.T, opts CoordinatorOptions, workers int) (*harness.ResultSet, []int) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var (
		rs    *harness.ResultSet
		runEr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs, runEr = c.Run(ctx)
	}()

	counts := make([]int, workers)
	errs := make([]error, workers)
	var ww sync.WaitGroup
	for i := 0; i < workers; i++ {
		ww.Add(1)
		go func(i int) {
			defer ww.Done()
			counts[i], errs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator: c.URL(),
				Name:        fmt.Sprintf("w%d", i),
				Parallel:    1,
			})
		}(i)
	}
	ww.Wait()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if runEr != nil {
		t.Fatalf("coordinator: %v", runEr)
	}
	return rs, counts
}

// TestFabricByteIdentityAcrossWorkerCounts is the fabric's headline
// guarantee: the merged CSV is byte-identical to a single-process
// Runner{Parallel:1} run for any worker count.
func TestFabricByteIdentityAcrossWorkerCounts(t *testing.T) {
	want := baselineCSV(t)
	for _, workers := range []int{1, 2, 4} {
		spec := testSpec()
		rs, counts := runFabric(t, CoordinatorOptions{
			Spec: &spec, LeaseChunk: 2, LeaseTTL: 5 * time.Second,
			Linger: 500 * time.Millisecond,
		}, workers)
		if got := toCSV(t, rs); got != want {
			t.Fatalf("%d workers: merged CSV differs from single-process run:\n%s\nwant:\n%s", workers, got, want)
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != len(rs.Trials) || rs.Executed != len(rs.Trials) {
			t.Fatalf("%d workers executed %d trials (coordinator says %d), want %d",
				workers, total, rs.Executed, len(rs.Trials))
		}
	}
}

// TestFabricWorkerKilledMidRange kills a worker holding a lease (by
// taking the lease over raw HTTP and never reporting), waits for the
// TTL to requeue it, and checks a surviving worker completes the run
// with byte-identical output.
func TestFabricWorkerKilledMidRange(t *testing.T) {
	spec := testSpec()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec: &spec, LeaseChunk: 2, LeaseTTL: 150 * time.Millisecond,
		Linger: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		rs    *harness.ResultSet
		runEr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() { defer wg.Done(); rs, runEr = c.Run(ctx) }()

	// The doomed worker: leases a range and is then "killed" — no
	// results, no renewals, just silence.
	body, _ := json.Marshal(leaseRequest{Worker: "doomed"})
	resp, err := http.Post(c.URL()+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if lr.Lease == nil || len(lr.Lease.Indices) == 0 {
		t.Fatalf("doomed worker got no lease: %+v", lr)
	}

	// A surviving worker drains the rest, stalls on the held range until
	// the TTL expires, then picks it up and finishes.
	n, err := RunWorker(ctx, WorkerOptions{
		Coordinator: c.URL(), Name: "survivor", Parallel: 1,
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if runEr != nil {
		t.Fatalf("coordinator: %v", runEr)
	}
	if n != len(rs.Trials) {
		t.Fatalf("survivor executed %d of %d trials", n, len(rs.Trials))
	}
	if got, want := toCSV(t, rs), baselineCSV(t); got != want {
		t.Fatalf("merged CSV after mid-range kill differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestFabricCoordinatorRestartResumesFromCheckpoint commits part of the
// run, kills the coordinator, and checks a successor replays the
// checkpoint, re-leases only the missing trials, and produces the same
// bytes.
func TestFabricCoordinatorRestartResumesFromCheckpoint(t *testing.T) {
	ckpath := filepath.Join(t.TempDir(), "fab.ckpt")
	spec := testSpec()
	c1, err := NewCoordinator(CoordinatorOptions{
		Spec: &spec, Checkpoint: ckpath, LeaseChunk: 3, LeaseTTL: 5 * time.Second,
		Linger: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() { _, err := c1.Run(ctx1); done1 <- err }()

	// Hand-crank one lease's worth of results, then kill the
	// coordinator before the run completes.
	w, err := NewWorker(context.Background(), WorkerOptions{Coordinator: c1.URL(), Name: "partial"})
	if err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := w.client.Do(context.Background(), http.MethodPost, "/lease", leaseRequest{Worker: "partial"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Lease == nil {
		t.Fatalf("no lease granted: %+v", lr)
	}
	committed := len(lr.Lease.Indices)
	if _, _, err := w.runLease(context.Background(), *lr.Lease, 0); err != nil {
		t.Fatal(err)
	}
	cancel1()
	if err := <-done1; err == nil {
		t.Fatal("cancelled coordinator reported success")
	}

	// Successor resumes from the checkpoint and only hands out the rest.
	spec2 := testSpec()
	c2, err := NewCoordinator(CoordinatorOptions{
		Spec: &spec2, Checkpoint: ckpath, Resume: true,
		LeaseChunk: 3, LeaseTTL: 5 * time.Second, Linger: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	var (
		rs    *harness.ResultSet
		runEr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() { defer wg.Done(); rs, runEr = c2.Run(ctx2) }()
	n, err := RunWorker(ctx2, WorkerOptions{
		Coordinator: c2.URL(), Name: "finisher", Parallel: 1,
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("finisher: %v", err)
	}
	if runEr != nil {
		t.Fatalf("restarted coordinator: %v", runEr)
	}
	if want := len(rs.Trials) - committed; n != want || rs.Executed != want {
		t.Fatalf("successor executed %d trials (coordinator says %d), want %d re-run after %d resumed",
			n, rs.Executed, want, committed)
	}
	if got, want := toCSV(t, rs), baselineCSV(t); got != want {
		t.Fatalf("merged CSV after coordinator restart differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestFabricGarbageResultsRejected throws malformed result streams at
// the coordinator and checks each is rejected wholesale — the checkpoint
// keeps its exact prior bytes — before a clean worker finishes the run
// and the store answers tail queries.
func TestFabricGarbageResultsRejected(t *testing.T) {
	dir := t.TempDir()
	ckpath := filepath.Join(dir, "fab.ckpt")
	store, err := resultstore.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	spec := testSpec()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec: &spec, Checkpoint: ckpath, Store: store,
		LeaseChunk: 2, LeaseTTL: 5 * time.Second, Linger: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		rs    *harness.ResultSet
		runEr error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() { defer wg.Done(); rs, runEr = c.Run(ctx) }()

	before, err := os.ReadFile(ckpath)
	if err != nil {
		t.Fatal(err)
	}
	goodHdr, _ := json.Marshal(resultsHeader{Fingerprint: spec.Fingerprint()})
	for name, body := range map[string]string{
		"not json at all":   "complete garbage\nmore garbage\n",
		"empty stream":      "",
		"wrong fingerprint": `{"fingerprint":"sweep|other"}` + "\n" + `{"i":0,"o":{}}` + "\n",
		"garbage entry":     string(goodHdr) + "\n" + `{"i":0,"o":{` + "\n",
		"index out of range": string(goodHdr) + "\n" +
			`{"i":999,"o":{"result":{"rounds":1}}}` + "\n",
	} {
		resp, err := http.Post(c.URL()+"/results", "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Bounded, too: a stream with more entries than the work-list has
	// trials is refused before any is committed, and so is a body over the
	// control plane's size bound.
	entry := `{"i":0,"o":{"result":{"rounds":1}}}` + "\n"
	padded := `{"i":0,` + strings.Repeat(" ", ctlhttp.MaxBody/7) + `"o":{}}` + "\n"
	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"more entries than trials": {string(goodHdr) + "\n" + strings.Repeat(entry, 9), http.StatusBadRequest},
		"oversized body":           {string(goodHdr) + "\n" + strings.Repeat(padded, 8), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(c.URL()+"/results", "application/jsonl", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.code, msg)
		}
	}
	after, err := os.ReadFile(ckpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("rejected results mutated the checkpoint: %d -> %d bytes", len(before), len(after))
	}

	// A clean worker still completes the run and the store serves tails.
	if _, err := RunWorker(ctx, WorkerOptions{
		Coordinator: c.URL(), Name: "clean", Parallel: 1,
	}); err != nil {
		t.Fatalf("clean worker: %v", err)
	}
	wg.Wait()
	if runEr != nil {
		t.Fatalf("coordinator: %v", runEr)
	}
	if got, want := toCSV(t, rs), baselineCSV(t); got != want {
		t.Fatalf("merged CSV after garbage storm differs:\n%s\nwant:\n%s", got, want)
	}
	ts, err := store.Tail(resultstore.Filter{Spec: "fabric-test", Graph: "ring", N: 8})
	if err != nil || ts.Trials != 4 || ts.P99 <= 0 || math.IsNaN(ts.P999) {
		t.Fatalf("store tail after fabric run = %+v, err=%v", ts, err)
	}
}

// TestFabricRejectsNonSerializableSpecs pins the wire-safety guard:
// specs that would silently lose state over JSON are refused up front.
func TestFabricRejectsNonSerializableSpecs(t *testing.T) {
	spec := testSpec()
	spec.Graphs = []*graph.Graph{graph.Ring(8)}
	if _, err := NewCoordinator(CoordinatorOptions{Spec: &spec}); err == nil ||
		!strings.Contains(err.Error(), "Graphs") {
		t.Fatalf("pre-built Graphs accepted: %v", err)
	}

	spec2 := testSpec()
	spec2.TrialSeed = func(size, trial int) uint64 { return 1 }
	if _, err := NewCoordinator(CoordinatorOptions{Spec: &spec2}); err == nil ||
		!strings.Contains(err.Error(), "TrialSeed") {
		t.Fatalf("custom TrialSeed accepted: %v", err)
	}
}

// TestWorkerRefusesUnrunnableSpec: a /spec body that decodes but cannot
// run (here an action no protocol knows) is refused by NewWorker, naming
// the word, before the worker asks for a lease.
func TestWorkerRefusesUnrunnableSpec(t *testing.T) {
	spec := testSpec()
	spec.Action = 9
	body, err := json.Marshal(map[string]any{"spec": &spec, "fingerprint": spec.Fingerprint(), "total": 8})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		if r.URL.Path != "/spec" {
			http.Error(w, "unexpected", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer srv.Close()

	_, err = NewWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, Name: "w"})
	if err == nil || !strings.Contains(err.Error(), "unknown action Action(9)") {
		t.Errorf("NewWorker: err = %v, want a refusal naming the action", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(paths, ",") != "/spec" {
		t.Errorf("worker requested %v, want /spec alone", paths)
	}
}
