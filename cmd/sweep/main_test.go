package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/ctlhttp"
	"algossip/internal/fabric"
	"algossip/internal/harness"
	"algossip/internal/harness/harnesstest"
	"algossip/internal/resultstore"
)

// goldenSweeps pins the exact CSV bytes the pre-harness cmd/sweep
// produced for fixed seeds, across protocols and time models. The
// harness refactor must keep fixed-seed output byte-identical, at every
// worker count.
var goldenSweeps = []struct {
	args []string
	want string
}{
	{
		args: []string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12", "-trials", "2", "-seed", "5"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"line-8,uniform-ag,synchronous,8,4,0,20\n" +
			"line-8,uniform-ag,synchronous,8,4,1,20\n" +
			"line-12,uniform-ag,synchronous,12,6,0,28\n" +
			"line-12,uniform-ag,synchronous,12,6,1,24\n",
	},
	{
		args: []string{"-graph", "barbell", "-protocol", "tag", "-kmode", "n", "-sizes", "8,10", "-trials", "2", "-seed", "7"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"barbell-8,tag-brr,synchronous,8,8,0,38\n" +
			"barbell-8,tag-brr,synchronous,8,8,1,40\n" +
			"barbell-10,tag-brr,synchronous,10,10,0,52\n" +
			"barbell-10,tag-brr,synchronous,10,10,1,56\n",
	},
	// Dynamic-topology sweeps share the determinism contract: the CSV is
	// pinned byte-identical across worker counts and resume histories.
	{
		args: []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16", "-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.2"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"torus-3x3,uniform-ag,synchronous,9,4,0,8\n" +
			"torus-3x3,uniform-ag,synchronous,9,4,1,7\n" +
			"torus-4x4,uniform-ag,synchronous,16,8,0,11\n" +
			"torus-4x4,uniform-ag,synchronous,16,8,1,12\n",
	},
	{
		args: []string{"-graph", "ring", "-protocol", "uncoded", "-sizes", "10", "-trials", "2", "-seed", "3", "-dynamics", "churn:rate=0.2,period=8"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"ring-10,uncoded,synchronous,10,5,0,61\n" +
			"ring-10,uncoded,synchronous,10,5,1,104\n",
	},
	{
		args: []string{"-graph", "grid", "-protocol", "uncoded", "-kmode", "sqrt", "-sizes", "9,16", "-trials", "3", "-seed", "11", "-model", "async"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"grid-3x3,uncoded,asynchronous,9,3,0,17\n" +
			"grid-3x3,uncoded,asynchronous,9,3,1,10\n" +
			"grid-3x3,uncoded,asynchronous,9,3,2,11\n" +
			"grid-4x4,uncoded,asynchronous,16,4,0,18\n" +
			"grid-4x4,uncoded,asynchronous,16,4,1,18\n" +
			"grid-4x4,uncoded,asynchronous,16,4,2,15\n",
	},
	// Recorded from the last commit whose sweep parsed these words by
	// hand; parentAdversaryCkpt below is that run's checkpoint.
	{
		args: []string{"-graph", "complete", "-sizes", "16,24", "-trials", "2", "-seed", "7", "-generations", "4",
			"-adversary", "byzantine:frac=0.2", "-classes", "straggler:frac=0.25,slow=3"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"complete-16,uniform-ag,synchronous,16,8,0,25\n" +
			"complete-16,uniform-ag,synchronous,16,8,1,50\n" +
			"complete-24,uniform-ag,synchronous,24,12,0,82\n" +
			"complete-24,uniform-ag,synchronous,24,12,1,57\n",
	},
}

// sweep runs one command line locally, stderr discarded.
func sweep(args []string, stdout io.Writer) error {
	return run(context.Background(), args, stdout, io.Discard)
}

func TestSweepGoldenOutput(t *testing.T) {
	for _, g := range goldenSweeps {
		for _, workers := range []int{1, 4, 16} {
			args := append([]string{"-parallel", strconv.Itoa(workers)}, g.args...)
			var buf bytes.Buffer
			if err := sweep(args, &buf); err != nil {
				t.Fatalf("sweep(%v): %v", args, err)
			}
			if buf.String() != g.want {
				t.Errorf("sweep(%v) output changed:\ngot:\n%swant:\n%s", args, buf.String(), g.want)
			}
		}
	}
}

// TestSweepOneGenerationIsClassic pins the unification rule at the binary
// every CI smoke job drives: -generations equal to k is one generation,
// which is the classic protocol, so the sweep's CSV (rounds column
// included) equals the same sweep without -generations.
func TestSweepOneGenerationIsClassic(t *testing.T) {
	base := []string{"-graph", "ring", "-sizes", "12,16", "-kmode", "const:8", "-trials", "3", "-seed", "5"}
	var classic, oneGen bytes.Buffer
	if err := sweep(base, &classic); err != nil {
		t.Fatal(err)
	}
	if err := sweep(append([]string{"-generations", "8"}, base...), &oneGen); err != nil {
		t.Fatal(err)
	}
	if classic.String() != oneGen.String() {
		t.Errorf("-generations 8 at k=8 diverged from the classic sweep:\ngot:\n%swant:\n%s", oneGen.String(), classic.String())
	}
}

func TestSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.csv")
	err := sweep([]string{
		"-graph", "line", "-protocol", "ag", "-sizes", "8,12",
		"-trials", "2", "-out", out, "-seed", "5",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 2 sizes x 2 trials.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "graph,protocol,model,n,k,trial,rounds") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "line-8,uniform-ag,synchronous,8,4,0,") {
		t.Fatalf("bad row: %s", lines[1])
	}
}

func TestSweepResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := []string{"-graph", "line", "-sizes", "8,12", "-trials", "2",
		"-seed", "5", "-checkpoint", ckpt}

	var full bytes.Buffer
	if err := sweep(args, &full); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill: drop the checkpoint's tail, then resume.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short: %d lines", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := sweep(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed output differs from uninterrupted run:\ngot:\n%swant:\n%s",
			resumed.String(), full.String())
	}
}

// TestSweepResumesParentCheckpoint: a checkpoint written before the Spec
// bound its own flags (header + the first two trials of the adversarial
// golden above) is still recognised — same fingerprint from the same
// words — and resumes to the same bytes.
func TestSweepResumesParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_adversary.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g := goldenSweeps[len(goldenSweeps)-1]
	var resumed bytes.Buffer
	if err := sweep(append([]string{"-checkpoint", ckpt, "-resume"}, g.args...), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != g.want {
		t.Errorf("resume from the parent's checkpoint differs:\ngot:\n%swant:\n%s", resumed.String(), g.want)
	}
}

// TestSweepActionFlag: -action reaches the Spec (it used to exist on
// gossipsim only), so the CSV equals the library run of the same Spec.
func TestSweepActionFlag(t *testing.T) {
	var got bytes.Buffer
	if err := sweep([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3", "-action", "push"}, &got); err != nil {
		t.Fatal(err)
	}
	spec := harness.Spec{Name: "sweep", Graph: "ring", Sizes: []int{12}, Q: 2, Action: core.Push, Trials: 3, Seed: 3}
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var want, exchange bytes.Buffer
	if err := harness.WriteCSV(&want, rs); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("-action push:\ngot:\n%swant:\n%s", got.String(), want.String())
	}
	if err := sweep([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3"}, &exchange); err != nil {
		t.Fatal(err)
	}
	if got.String() == exchange.String() {
		t.Error("-action push ran the EXCHANGE trajectory")
	}
}

// TestSweepDynamicsResume: a dynamics sweep killed mid-run resumes to
// the identical output bytes.
func TestSweepDynamicsResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "dyn.ckpt")
	args := []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16",
		"-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.2", "-checkpoint", ckpt}

	var full bytes.Buffer
	if err := sweep(args, &full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short: %d lines", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := sweep(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed dynamics output differs:\ngot:\n%swant:\n%s",
			resumed.String(), full.String())
	}
	// A checkpoint written with different dynamics must be rejected.
	other := []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16",
		"-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.4",
		"-checkpoint", ckpt, "-resume"}
	if err := sweep(other, os.Stdout); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign dynamics checkpoint accepted: %v", err)
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-graph", "bogus"},
		{"-sizes", "nope"},
		{"-kmode", "nope"},
		{"-trials", "0"},
		{"-resume"},                      // -resume without -checkpoint
		{"-dynamics", "bogus"},           // unknown schedule kind
		{"-dynamics", "edge:rate=1.5"},   // rate out of range
		{"-dynamics", "churn:period=-1"}, // bad cadence
	} {
		if err := sweep(args, os.Stdout); err == nil {
			t.Errorf("sweep(%v) accepted", args)
		}
	}
	harnesstest.RejectsBadSpecWords(t, sweep)
	// A refused combination fails before the pool starts.
	if err := sweep([]string{"-protocol", "tag", "-generations", "4"}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "cell n=") {
		t.Errorf("tag x generations: %v, want Expand's per-cell refusal", err)
	}
	// -action on a tree protocol used to be accepted, run EXCHANGE, and
	// file the rows under regime=action=PUSH; now nothing reaches the store.
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	err := sweep([]string{"-protocol", "tag", "-action", "push", "-sizes", "16", "-store", storePath}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "EXCHANGE with the tree parent") {
		t.Errorf("tag x push: %v, want the model's reason", err)
	}
	if _, serr := os.Stat(storePath); !os.IsNotExist(serr) {
		t.Errorf("refused sweep left a store behind: %v", serr)
	}
	if err := sweep([]string{"-q", "300", "-sizes", "16"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("-q 300: %v, want the supported orders", err)
	}

	// A served sweep refuses the same words before it binds. Its context is
	// already cancelled, so a spec let through would serve nothing and
	// return context.Canceled, which counts as accepted here.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	harnesstest.RejectsBadSpecWords(t, func(args []string, stdout io.Writer) error {
		err := run(cancelled, append([]string{"-listen", "127.0.0.1:0"}, args...), stdout, io.Discard)
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return err
	})
	// An unbuildable field used to start the coordinator and kill its first
	// worker; now the spec is refused before the listener: on a port that is
	// taken, the answer is still the field order, not "address in use".
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().String()
	if err := sweep([]string{"-q", "6", "-sizes", "16", "-listen", taken}, io.Discard); err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("-listen -q 6: %v, want a refusal naming the supported orders", err)
	}

	// A flag the chosen mode would ignore is refused by name.
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-session", "ci"}, "-session"},
		{[]string{"-lease-chunk", "8"}, "-lease-chunk"},
		{[]string{"-lease-ttl", "2s"}, "-lease-ttl"},
		{[]string{"-listen", taken, "-parallel", "2"}, "-parallel"},
		{[]string{"-listen", taken, "-timeout", "1s"}, "-timeout"},
		{[]string{"-listen", taken, "-resume"}, "-checkpoint"},
	} {
		if err := sweep(c.args, io.Discard); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("sweep %v: %v, want a refusal naming %s", c.args, err, c.flag)
		}
	}
}

// TestSweepStoreIngest: -store mirrors the CSV rows into the result
// store, queryable by cell with tail quantiles and no CSV re-parsing.
func TestSweepStoreIngest(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	var buf bytes.Buffer
	if err := sweep([]string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12",
		"-trials", "2", "-seed", "5", "-store", storePath}, &buf); err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts, err := store.Tail(resultstore.Filter{Spec: "sweep", Graph: "line", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Golden rows for this seed: n=8 trials are 20,20.
	if ts.Trials != 2 || ts.Mean != 20 || ts.P99 != 20 || ts.Max != 20 {
		t.Fatalf("store tail = %+v", ts)
	}
	if cells := store.Cells(); len(cells) != 2 {
		t.Fatalf("store has %d cells, want 2", len(cells))
	}
}

// TestSweepStoreKeepsRegimesApart: runs of one (graph, n, k, q) cell that
// differ only in time model, action, adversary or classes sample
// different distributions, so each lands in its own store cell — they
// used to merge into one cell and one tail summary.
func TestSweepStoreKeepsRegimesApart(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	base := []string{"-graph", "complete", "-sizes", "16", "-trials", "4", "-seed", "2", "-store", storePath}
	regimes := [][]string{
		nil,
		{"-model", "async"},
		{"-action", "push"},
		{"-adversary", "byzantine:frac=0.2"},
		{"-classes", "straggler:frac=0.2"},
	}
	for _, r := range regimes {
		if err := sweep(append(append([]string{}, base...), r...), new(bytes.Buffer)); err != nil {
			t.Fatalf("sweep(%v): %v", r, err)
		}
	}
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cells := store.Cells()
	if len(cells) != len(regimes) {
		t.Fatalf("store has %d cells for %d regimes: %+v", len(cells), len(regimes), cells)
	}
	for _, c := range cells {
		if c.Trials != 4 {
			t.Errorf("cell %+v holds %d trials, want its own 4", c.Cell, c.Trials)
		}
	}
	for regime, want := range map[string]int{
		"":                                    4,
		"model=asynchronous":                  4,
		"action=PUSH":                         4,
		"adv=byzantine:frac=0.2,mode=pollute": 4,
		"classes=straggler:frac=0.2,slow=4":   4,
		"action=PULL":                         0,
	} {
		ts, err := store.Tail(resultstore.Filter{Graph: "complete", N: 16, Regime: regime, HasRegime: true})
		if err != nil || ts.Trials != want {
			t.Errorf("regime %q: %d trials (err=%v), want %d", regime, ts.Trials, err, want)
		}
	}
	if ts, _ := store.Tail(resultstore.Filter{Graph: "complete", N: 16}); ts.Trials != 20 {
		t.Errorf("regime wildcard matched %d trials, want all 20", ts.Trials)
	}
}

// failWriter rejects every write, for write-error propagation tests.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestSweepPropagatesWriteErrors(t *testing.T) {
	err := sweep([]string{"-graph", "line", "-sizes", "8", "-trials", "1"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// TestSweepRefusalKeepsOutFile: a sweep refused before it runs, served or
// not, leaves an existing -out file byte-identical; one that runs replaces
// the file whole, however long it was; and an unwritable -out fails before
// the first trial (nothing reaches the checkpoint).
func TestSweepRefusalKeepsOutFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "keep.csv")
	precious := []byte(strings.Repeat("precious\n", 200))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-q", "6", "-sizes", "16"},
		{"-protocol", "tag", "-action", "push", "-sizes", "16"},
		{"-listen", "127.0.0.1:0", "-q", "6", "-sizes", "16"},
		{"-listen", "127.0.0.1:0", "-protocol", "tag", "-action", "push", "-sizes", "16"},
	} {
		if err := os.WriteFile(out, precious, 0o644); err != nil {
			t.Fatal(err)
		}
		// A served spec let through would return context.Canceled.
		if err := run(cancelled, append([]string{"-out", out}, args...), io.Discard, io.Discard); err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("sweep %v accepted", args)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, precious) {
			t.Errorf("refused sweep %v left -out at %d bytes (%v), want the %d it had", args, len(got), err, len(precious))
		}
	}

	g := goldenSweeps[0]
	if err := sweep(append([]string{"-out", out}, g.args...), io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); string(got) != g.want {
		t.Errorf("a sweep over a longer file wrote:\n%s\nwant:\n%s", got, g.want)
	}
	if err := sweep(append([]string{"-out", os.DevNull}, g.args...), io.Discard); err != nil {
		t.Errorf("-out %s: %v", os.DevNull, err)
	}

	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := append([]string{"-out", filepath.Join(dir, "no", "such", "dir.csv"), "-checkpoint", ckpt}, g.args...)
	if err := sweep(args, io.Discard); err == nil {
		t.Error("an unwritable -out was accepted")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("an unwritable -out failed after the pool started: checkpoint %v", err)
	}
}

// TestProfileFlagsSmoke checks -cpuprofile/-memprofile/-trace write
// non-empty diagnostics files on clean exit without disturbing the CSV.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	var buf bytes.Buffer
	args := []string{"-graph", "line", "-protocol", "ag", "-sizes", "8", "-trials", "1", "-seed", "5",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
	if err := sweep(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "graph,protocol,model,n,k,trial,rounds\n") {
		t.Fatalf("CSV output disturbed: %q", buf.String())
	}
	for _, path := range []string{cpu, mem, trc} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s missing: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestProfileFlagBadPath: an unwritable profile path fails up front.
func TestProfileFlagBadPath(t *testing.T) {
	var buf bytes.Buffer
	err := sweep([]string{"-graph", "line", "-sizes", "8", "-trials", "1",
		"-cpuprofile", filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")}, &buf)
	if err == nil {
		t.Fatal("expected error for unwritable cpuprofile path")
	}
}

// serving starts `sweep -listen 127.0.0.1:0` on args and returns the URL
// its first stderr line names, the rest of stderr (complete once the run
// has returned) and the run's result. afterFirst, when set, reads stderr
// right after the address line and returns before the rest is drained.
func serving(t *testing.T, ctx context.Context, args []string, afterFirst func(*bufio.Reader)) (string, *bytes.Buffer, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	result := make(chan error, 1)
	go func() {
		err := run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), io.Discard, pw)
		_ = pw.Close()
		result <- err
	}()
	stderr := bufio.NewReader(pr)
	line, err := stderr.ReadString('\n')
	if err != nil {
		t.Fatalf("served sweep exited without announcing its address: %v", <-result)
	}
	url, ok := strings.CutPrefix(line, "sweep: serving ")
	url, _, _ = strings.Cut(url, " ")
	if !ok || !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("first stderr line %q names no address", line)
	}
	rest, drained := new(bytes.Buffer), make(chan error, 1)
	go func() {
		if afterFirst != nil {
			afterFirst(stderr)
		}
		_, _ = io.Copy(rest, stderr)
		drained <- <-result
	}()
	return url, rest, drained
}

// TestSweepServesFabric: the same words run on the local pool and served
// to a fabric worker give the same CSV — the pinned golden, and an
// adversarial PUSH regime with node classes — while the session,
// checkpoint, store and the lingering /status answer along the way.
func TestSweepServesFabric(t *testing.T) {
	for _, c := range []struct {
		name   string
		words  []string
		want   string // also pinned, when set
		tail   resultstore.Filter
		p99    float64 // of tail, when set
		regime string  // the regime both cells store
	}{
		{
			name:  "golden",
			words: goldenSweeps[0].args,
			want:  goldenSweeps[0].want,
			tail:  resultstore.Filter{Spec: "sweep", Graph: "line", N: 8},
			p99:   20,
		},
		{
			name: "adversarial-push",
			words: []string{"-graph", "complete", "-sizes", "24,32", "-trials", "2", "-seed", "9",
				"-adversary", "byzantine:frac=0.1,mode=pollute", "-classes", "straggler:frac=0.2,slow=4", "-action", "push"},
			tail: resultstore.Filter{Graph: "complete", N: 24, HasRegime: true,
				Regime: "action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4"},
			regime: "action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var local bytes.Buffer
			if err := sweep(append([]string{"-parallel", "1"}, c.words...), &local); err != nil {
				t.Fatal(err)
			}
			if c.want != "" && local.String() != c.want {
				t.Fatalf("local pool CSV moved off the pin:\n%s", local.String())
			}

			dir := t.TempDir()
			out := filepath.Join(dir, "fab.csv")
			storePath := filepath.Join(dir, "results.jsonl")
			url, _, result := serving(t, context.Background(), append([]string{
				"-session", "ci", "-checkpoint", filepath.Join(dir, "fab.ckpt"),
				"-store", storePath, "-out", out, "-lease-chunk", "2",
			}, c.words...), nil)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			n, err := fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: url, Name: "w0", Parallel: 2})
			if err != nil || n != 4 {
				t.Fatalf("worker executed %d trials: %v", n, err)
			}
			// The sweep lingers after completion; /status reports the
			// finished counters while it does.
			var status bytes.Buffer
			if err := (ctlhttp.Client{Base: url}).Do(ctx, http.MethodGet, "/status", nil, &status); err != nil ||
				!strings.Contains(status.String(), `"done":4`) {
				t.Fatalf("status = %q, %v", status.String(), err)
			}
			if err := <-result; err != nil {
				t.Fatalf("served sweep: %v", err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != local.String() {
				t.Fatalf("served CSV differs from the local pool's:\ngot:\n%swant:\n%s", data, local.String())
			}

			// The store answers the tail query without touching the CSV,
			// each cell under the regime its rows declared.
			store, err := resultstore.Open(storePath)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if ts, err := store.Tail(c.tail); err != nil || ts.Trials != 2 || (c.p99 != 0 && ts.P99 != c.p99) {
				t.Fatalf("tail %+v = %+v, %v", c.tail, ts, err)
			}
			cells := store.Cells()
			if len(cells) != 2 {
				t.Fatalf("store has %d cells, want 2: %+v", len(cells), cells)
			}
			for _, cc := range cells {
				if cc.Cell.Regime != c.regime || cc.Trials != 2 {
					t.Errorf("cell %+v holds %d trials, want regime %q and 2", cc.Cell, cc.Trials, c.regime)
				}
			}
			// The default regime holds exactly the rows that declared none.
			ts, err := store.Tail(resultstore.Filter{HasRegime: true})
			if err != nil || (ts.Trials == 4) != (c.regime == "") {
				t.Fatalf("default-regime tail = %+v, %v, with cells under %q", ts, err, c.regime)
			}
		})
	}
}

// TestSweepServedResumesAfterCancel: a served sweep stopped mid-run (as a
// signal stops it) keeps what its workers delivered in the checkpoint,
// and -resume serves only the rest, to the local pool's bytes.
func TestSweepServedResumesAfterCancel(t *testing.T) {
	words := []string{"-graph", "ring", "-sizes", "16,24", "-trials", "30", "-seed", "3"}
	var want bytes.Buffer
	if err := sweep(append([]string{"-parallel", "1"}, words...), &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "fab.csv")
	args := append([]string{"-checkpoint", filepath.Join(dir, "fab.ckpt"), "-lease-chunk", "1", "-progress", "-out", out}, words...)
	work := func(ctx context.Context, url string) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: url, Name: "w", Parallel: 1})
			done <- err
		}()
		return done
	}

	// Cancel once the first accepted trial is reported. The progress line
	// waits on the pipe until it is read, so the sweep is still short of
	// its 60 trials when it hears the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	url, _, result := serving(t, ctx, args, func(stderr *bufio.Reader) {
		if _, err := stderr.ReadString(')'); err == nil {
			cancel()
		}
	})
	workerCtx, stopWorker := context.WithCancel(context.Background())
	worker := work(workerCtx, url)
	if err := <-result; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled served sweep: %v, want context.Canceled", err)
	}
	stopWorker()
	<-worker

	url, stderr, result := serving(t, context.Background(), append([]string{"-resume"}, args...), nil)
	if err := <-work(context.Background(), url); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-result; err != nil {
		t.Fatalf("resumed served sweep: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want.String() {
		t.Fatalf("resumed served CSV differs from the local pool's:\ngot:\n%swant:\n%s", data, want.String())
	}
	var total, executed, resumed int
	footer := stderr.String()[strings.LastIndex(stderr.String(), "sweep: "):]
	if _, err := fmt.Sscanf(footer, "sweep: %d trials (%d executed, %d resumed)", &total, &executed, &resumed); err != nil ||
		total != 60 || resumed < 1 || executed < 1 {
		t.Fatalf("footer %q: want some of the 60 trials resumed and the rest executed (%v)", footer, err)
	}
}
